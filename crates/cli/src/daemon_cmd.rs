//! `paotr serve --daemon` — the long-running serving daemon.
//!
//! Speaks the newline-delimited JSON protocol from `paotr_serverd` over
//! stdin/stdout, or over TCP with `--listen ADDR` (concurrent clients,
//! one thread per connection over the shared daemon). With `--snapshot
//! PATH` the daemon restores its state from `PATH` at startup (when the
//! file exists) and writes it back on clean shutdown, so restarts
//! continue tick-for-tick where the previous process stopped.

use crate::flags::{arrange, energy, faults, Flags};
use paotr_serverd::{Config, Daemon, TcpOptions};
use std::io::{BufReader, Write};
use std::net::TcpListener;
use std::sync::{Arc, Mutex};
use std::time::Duration;

pub(crate) struct Options {
    config: Config,
    listen: Option<String>,
    snapshot: Option<String>,
    tcp: TcpOptions,
}

pub(crate) fn options(flags: &mut Flags) -> Result<Options, String> {
    let d = Config::default();
    let config = Config {
        seed: flags.or("--seed", d.seed, "an integer")?,
        planner: flags
            .text("--planner", "a planner name")?
            .unwrap_or(d.planner),
        budget: energy(flags, "--budget")?,
        defer: !flags.switch("--shed")?,
        replan_after: flags.or("--replan-after", d.replan_after, "an integer (0 = never)")?,
        max_sessions: flags.count("--max-sessions")?.unwrap_or(d.max_sessions),
        max_window: flags.count("--max-window")?.unwrap_or(d.max_window),
        arrange: arrange(flags)?,
        faults: faults(flags)?,
        ..d
    };
    let idle_timeout = flags.get("--idle-timeout", "milliseconds")?;
    Ok(Options {
        config,
        listen: flags.text("--listen", "an address")?,
        snapshot: flags.text("--snapshot", "a path")?,
        tcp: TcpOptions {
            idle_timeout: idle_timeout.map(Duration::from_millis),
            ..TcpOptions::default()
        },
    })
}

pub fn run(flags: Flags) -> Result<(), String> {
    let Options {
        config,
        listen,
        snapshot,
        tcp,
    } = flags.read(options)?;

    // Restore from the snapshot when one exists; the snapshot's embedded
    // config wins so the restored run replays the original stream data.
    let mut daemon = match &snapshot {
        Some(path) if std::path::Path::new(path).exists() => {
            let d = Daemon::load_snapshot(path).map_err(|e| e.to_string())?;
            eprintln!(
                "restored snapshot {path}: tick {}, {} sessions",
                d.tick(),
                d.registry().len()
            );
            d
        }
        _ => Daemon::new(config).map_err(|e| e.to_string())?,
    };

    let shutdown = if let Some(addr) = listen {
        let listener = TcpListener::bind(&addr).map_err(|e| format!("bind {addr}: {e}"))?;
        eprintln!(
            "daemon listening on {}",
            listener.local_addr().map_err(|e| e.to_string())?
        );
        let shared = Arc::new(Mutex::new(daemon));
        Daemon::serve_tcp_shared_with(Arc::clone(&shared), &listener, tcp)
            .map_err(|e| format!("serve: {e}"))?;
        daemon = Arc::try_unwrap(shared)
            .map_err(|_| "a connection thread outlived the serve loop".to_string())?
            .into_inner()
            .map_err(|_| "a connection thread panicked holding the daemon".to_string())?;
        true
    } else {
        let stdin = std::io::stdin();
        let mut stdout = std::io::stdout();
        let done = daemon
            .serve(BufReader::new(stdin.lock()), &mut stdout)
            .map_err(|e| format!("serve: {e}"))?;
        stdout.flush().ok();
        done
    };

    if let Some(path) = &snapshot {
        daemon.save_snapshot(path).map_err(|e| e.to_string())?;
        eprintln!("saved snapshot {path} at tick {}", daemon.tick());
    }
    if !shutdown {
        eprintln!("input closed without a shutdown command");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    #[test]
    fn rejects_bad_flags() {
        for bad in [
            "--bogus",
            "--budget -1",
            "--max-sessions 0",
            "--replan-after",
            "--fault-rate 2",
            "--outage-streams -1",
            "--retries 0",
            "--idle-timeout soon",
        ] {
            let args: Vec<String> = bad.split_whitespace().map(str::to_string).collect();
            let flags = crate::flags::Flags::parse(&args).unwrap();
            assert!(super::run(flags).is_err(), "{bad}");
        }
    }
}
