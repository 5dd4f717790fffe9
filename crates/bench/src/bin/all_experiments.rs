//! Regenerates the paper's evaluation tables on the simulator: all eleven,
//! or the one `--only NAME` selects; `--markdown` emits them ready for
//! EXPERIMENTS.md.

use sstore_bench::experiments::{run_all, run_only, EXPERIMENTS};

fn usage(problem: &str) -> ! {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
    eprintln!(
        "all_experiments: {problem}\nusage: all_experiments [--only NAME] [--markdown]\n  NAME: {}",
        names.join(" ")
    );
    std::process::exit(2)
}

fn main() {
    let mut markdown = false;
    let mut only = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--markdown" => markdown = true,
            "--only" if only.is_some() => usage("--only given twice"),
            "--only" => only = Some(args.next().unwrap_or_else(|| usage("--only needs a NAME"))),
            other => usage(&format!("unknown argument `{other}`")),
        }
    }
    let tables = match only {
        Some(name) => {
            vec![run_only(&name).unwrap_or_else(|| usage(&format!("no experiment named `{name}`")))]
        }
        None => run_all(),
    };
    for table in tables {
        if markdown {
            println!("{}", table.to_markdown());
        } else {
            table.print();
        }
    }
}
