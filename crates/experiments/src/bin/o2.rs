//! The umbrella experiment driver: one binary for the whole matrix.
//!
//! ```text
//! o2 --list                          # the experiment index (markdown table)
//! o2 --run fig4a                     # one scenario, all cells
//! o2 --run fig2 --run table_latency  # several scenarios
//! o2 --all                           # the full registry
//! o2 --run fig_fsmeta --jobs 4       # shard cells over 4 OS threads
//! o2 --all --json matrix.json        # machine-readable results
//! o2 --all --quick                   # reduced sweeps (same as O2_QUICK=1)
//! ```
//!
//! Output is collected in cell-index order, and every cell derives its
//! seed from its coordinates, so the text and JSON renderings are
//! byte-identical for any `--jobs` value.

use o2_experiments::{quick_mode, registry, render_json, render_reports, run_matrix, Scenario};

fn usage() -> ! {
    eprintln!(
        "usage: o2 [--list] [--run <scenario>]... [--all] [--jobs N] [--json <path>] [--quick]\n\
         \n\
         --list         print the experiment index and exit\n\
         --run <name>   run one scenario (repeatable)\n\
         --all          run every scenario in the registry\n\
         --jobs N       shard matrix cells over N OS threads (default: all cores)\n\
         --json <path>  also write the results as JSON\n\
         --quick        reduced sweeps (equivalent to O2_QUICK=1)"
    );
    std::process::exit(2);
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut list = false;
    let mut all = false;
    let mut quick = quick_mode();
    let mut names: Vec<String> = Vec::new();
    let mut json_path: Option<String> = None;
    let mut jobs = std::thread::available_parallelism().map_or(1, usize::from);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--list" => list = true,
            "--all" => all = true,
            "--quick" => quick = true,
            "--run" => match args.next() {
                Some(n) => names.push(n),
                None => usage(),
            },
            "--jobs" => match args.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n >= 1 => jobs = n,
                _ => usage(),
            },
            "--json" => match args.next() {
                Some(p) => json_path = Some(p),
                None => usage(),
            },
            _ => usage(),
        }
    }

    let available = registry(quick);
    if list {
        println!("| scenario | cells | description |");
        println!("|---|---|---|");
        for s in &available {
            println!("| `{}` | {} | {} |", s.name, s.cell_count(), s.description);
        }
        if !all && names.is_empty() {
            return;
        }
    }
    if !all && names.is_empty() {
        usage();
    }

    let scenarios = if all {
        available
    } else {
        // Pick from the registry built above; a name can be taken once.
        let mut pool = available;
        let mut picked: Vec<Scenario> = Vec::new();
        for name in &names {
            match pool.iter().position(|s| s.name == *name) {
                Some(i) => picked.push(pool.remove(i)),
                None if picked.iter().any(|p| p.name == *name) => {
                    eprintln!("scenario `{name}` given twice");
                    std::process::exit(2);
                }
                None => {
                    eprintln!("unknown scenario `{name}` (see `o2 --list`)");
                    std::process::exit(2);
                }
            }
        }
        picked
    };

    let cells: usize = scenarios.iter().map(|s| s.cell_count()).sum();
    eprintln!(
        "running {} scenario(s), {cells} matrix cell(s), {jobs} job(s){}",
        scenarios.len(),
        if quick { ", quick sweeps" } else { "" }
    );
    let run = run_matrix(&scenarios, jobs);
    print!("{}", render_reports(&run));
    if let Some(path) = json_path {
        let json = render_json(&run);
        std::fs::write(&path, json).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        });
        eprintln!("wrote {path}");
    }
}
