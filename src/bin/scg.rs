//! `scg` — command-line explorer for super Cayley graph networks.
//!
//! ```text
//! scg classes                               list the ten network classes
//! scg report   <class> <l> <n>              size/degree/diameter/Moore bound
//! scg route    <class> <l> <n> "<from>" "<to>"   emulation route between labels
//! scg solve    <class> <l> <n> "<config>"   solve a ball-arrangement game
//! scg schedule <class> <l> <n>              Figure-1 style all-port schedule
//! scg mnb      <class> <l> <n>              all-port multinode broadcast time
//! scg te       <class> <l> <n>              all-port total exchange time
//! scg apply    <class> <l> <n> "<config>" "<moves>"   replay a move sequence
//! ```
//!
//! `<class>` is one of `ms rs crs mr rr crr is mis ris cris star`. For
//! `is`/`star`, `<l> <n>` still define `k = l·n + 1`. Labels are quoted
//! space-separated symbol sequences such as `"3 1 2 4 5"`.

use std::process::ExitCode;

use supercayley::bag::{BagConfig, BagGame};
use supercayley::comm::{mnb_all_port, te_all_port};
use supercayley::core::{apply_path, route_plan, NetworkReport, ScgClass, SuperCayleyGraph};
use supercayley::emu::AllPortSchedule;
use supercayley::perm::Perm;

const CAP: u64 = 1_000_000;

fn usage() -> String {
    "usage:\n  scg classes\n  scg report   <class> <l> <n>\n  scg route    <class> <l> <n> \"<from>\" \"<to>\"\n  scg solve    <class> <l> <n> \"<config>\"\n  scg schedule <class> <l> <n>\n  scg mnb      <class> <l> <n>\n  scg te       <class> <l> <n>\n  scg apply    <class> <l> <n> \"<config>\" \"<moves>\"\nclasses: ms rs crs mr rr crr is mis ris cris"
        .to_string()
}

fn parse_host(class: &str, l: usize, n: usize) -> Result<SuperCayleyGraph, String> {
    let class = match class {
        "ms" => ScgClass::MacroStar,
        "rs" => ScgClass::RotationStar,
        "crs" => ScgClass::CompleteRotationStar,
        "mr" => ScgClass::MacroRotator,
        "rr" => ScgClass::RotationRotator,
        "crr" => ScgClass::CompleteRotationRotator,
        "is" => return SuperCayleyGraph::insertion_selection(l * n + 1).map_err(|e| e.to_string()),
        "mis" => ScgClass::MacroIs,
        "ris" => ScgClass::RotationIs,
        "cris" => ScgClass::CompleteRotationIs,
        other => return Err(format!("unknown class `{other}`\n{}", usage())),
    };
    SuperCayleyGraph::new(class, l, n).map_err(|e| e.to_string())
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or("");
    match cmd {
        "classes" => {
            for c in ScgClass::ALL {
                println!(
                    "{:<14} nucleus {:?}, super {:?}",
                    c.abbrev(),
                    c.nucleus(),
                    c.super_kind()
                );
            }
            Ok(())
        }
        "report" | "route" | "solve" | "schedule" | "mnb" | "te" | "apply" => {
            if args.len() < 4 {
                return Err(usage());
            }
            let l: usize = args[2].parse().map_err(|_| usage())?;
            let n: usize = args[3].parse().map_err(|_| usage())?;
            let host = parse_host(&args[1], l, n)?;
            match cmd {
                "report" => {
                    let r = NetworkReport::measure(&host, CAP).map_err(|e| e.to_string())?;
                    println!("{r}");
                }
                "route" => {
                    if args.len() < 6 {
                        return Err(usage());
                    }
                    let from: Perm = args[4].parse().map_err(|e| format!("bad <from>: {e}"))?;
                    let to: Perm = args[5].parse().map_err(|e| format!("bad <to>: {e}"))?;
                    let path = route_plan(&host)
                        .and_then(|plan| plan.route(&from, &to))
                        .map_err(|e| e.to_string())?;
                    println!("{} hops:", path.len());
                    let mut cur = from;
                    for g in &path {
                        cur = g.apply(&cur).map_err(|e| e.to_string())?;
                        println!("  {g:<4} -> {cur}");
                    }
                    debug_assert_eq!(apply_path(&from, &path).map_err(|e| e.to_string())?, to);
                }
                "solve" => {
                    if args.len() < 5 {
                        return Err(usage());
                    }
                    let config: BagConfig =
                        args[4].parse().map_err(|e| format!("bad <config>: {e}"))?;
                    let game = BagGame::new(host);
                    let bn = game.network().box_size();
                    println!("start : {}", config.render(bn));
                    let moves = game.solve(&config).map_err(|e| e.to_string())?;
                    let mut cur = config;
                    for (i, mv) in moves.iter().enumerate() {
                        cur = game.apply(&cur, *mv).map_err(|e| e.to_string())?;
                        println!("{:>3}. {:<4} {}", i + 1, mv.to_string(), cur.render(bn));
                    }
                    println!("solved in {} moves", moves.len());
                }
                "schedule" => {
                    let s = AllPortSchedule::build(&host).map_err(|e| e.to_string())?;
                    print!("{}", s.render());
                    println!("theorem bound: {:?}", s.theoretical_bound());
                }
                "mnb" => {
                    let r = mnb_all_port(&host, CAP).map_err(|e| e.to_string())?;
                    println!(
                        "{}: MNB in {} steps (lower bound {}, ratio {:.3})",
                        r.network,
                        r.steps,
                        r.lower_bound,
                        r.optimality_ratio()
                    );
                }
                "apply" => {
                    if args.len() < 6 {
                        return Err(usage());
                    }
                    let config: BagConfig =
                        args[4].parse().map_err(|e| format!("bad <config>: {e}"))?;
                    let game = BagGame::new(host);
                    let bn = game.network().box_size();
                    let moves = supercayley::core::Generator::parse_sequence(&args[5], bn)?;
                    let mut cur = config;
                    println!("start : {}", cur.render(bn));
                    for mv in &moves {
                        cur = game.apply(&cur, *mv).map_err(|e| e.to_string())?;
                        println!("{:<4} -> {}", mv.to_string(), cur.render(bn));
                    }
                    println!("solved: {}", cur.is_solved());
                }
                "te" => {
                    let r = te_all_port(&host, 10_000, 100_000_000).map_err(|e| e.to_string())?;
                    println!(
                        "{}: TE in {} steps (volume bound {}, ratio {:.3}); traffic {}",
                        r.network,
                        r.steps,
                        r.lower_bound,
                        r.optimality_ratio(),
                        r.traffic.expect("all-port TE records traffic")
                    );
                }
                _ => unreachable!(),
            }
            Ok(())
        }
        _ => Err(usage()),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
