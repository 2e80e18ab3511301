//! Measurement worker of the repository benchmark. `run.py` beside this
//! package starts one fresh process per measured run, so every run's peak
//! memory is its own:
//!
//! ```text
//! perfbench rep   --workload <name> --seed <n>                 # untraced
//! perfbench trace --workload <name> --seed <n> [--spans <file>] # traced
//! ```
//!
//! Each prints one JSON object on its last line of standard output.

mod calib;
mod json;
mod ledger;
#[cfg(test)]
mod tests;
mod traced;
mod untraced;
mod workload;

use workload::Workload;

fn usage() -> String {
    "usage: perfbench <rep|trace> --workload <name> --seed <n> [--spans <file>]".into()
}

fn main() {
    if let Err(e) = real_main() {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    }
}

fn real_main() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = args.first().ok_or_else(usage)?.clone();
    let (mut name, mut seed, mut spans) = (None, None, None);
    let mut it = args[1..].iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => name = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--spans" => spans = Some(value.clone()),
            _ => return Err(format!("unknown flag {flag}; {}", usage())),
        }
    }
    let name = name.ok_or_else(usage)?;
    let seed = seed.ok_or_else(usage)?;
    let workload = Workload::from_name(&name, seed)?;
    let line = match mode.as_str() {
        "rep" => {
            // The reference kernel brackets the run: the host's speed while
            // the run was measured.
            let before = calib::kernel_seconds();
            let run = untraced::run(&workload)?;
            let after = calib::kernel_seconds();
            run.num("kernel_s", (before + after) / 2.0).render()
        }
        "trace" => traced::run(&workload, spans.as_deref())?,
        _ => return Err(usage()),
    };
    println!("{line}");
    Ok(())
}
