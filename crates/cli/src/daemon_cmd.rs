//! `paotr serve --daemon` — the long-running serving daemon.
//!
//! Speaks the newline-delimited JSON protocol from `paotr_serverd` over
//! stdin/stdout, or over TCP with `--listen ADDR` (concurrent clients,
//! one thread per connection over the shared daemon). With `--snapshot
//! PATH` the daemon restores its state from `PATH` at startup (when the
//! file exists) and writes it back on clean shutdown, so restarts
//! continue tick-for-tick where the previous process stopped.

use paotr_serverd::{Config, Daemon, TcpOptions};
use std::io::{BufReader, Write};
use std::net::TcpListener;
use std::sync::{Arc, Mutex};
use std::time::Duration;

pub fn run(args: &[String]) -> Result<(), String> {
    let mut config = Config::default();
    let mut listen: Option<String> = None;
    let mut snapshot: Option<String> = None;
    let mut tcp = TcpOptions::default();

    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let value = args.get(i + 1).filter(|v| !v.starts_with("--"));
        let take = |name: &str| -> Result<String, String> {
            value
                .cloned()
                .ok_or_else(|| format!("{name} expects a value"))
        };
        match flag {
            "--seed" => {
                config.seed = take("--seed")?
                    .parse()
                    .map_err(|_| "--seed expects an integer".to_string())?;
                i += 2;
            }
            "--planner" => {
                config.planner = take("--planner")?;
                i += 2;
            }
            "--budget" => {
                let b: f64 = take("--budget")?
                    .parse()
                    .map_err(|_| "--budget expects a number".to_string())?;
                if !(b.is_finite() && b >= 0.0) {
                    return Err("--budget expects a finite energy value >= 0".into());
                }
                config.budget = Some(b);
                i += 2;
            }
            "--shed" => {
                config.defer = false;
                i += 1;
            }
            "--replan-after" => {
                config.replan_after = take("--replan-after")?
                    .parse()
                    .map_err(|_| "--replan-after expects an integer (0 = never)".to_string())?;
                i += 2;
            }
            "--max-sessions" => {
                config.max_sessions = take("--max-sessions")?
                    .parse()
                    .map_err(|_| "--max-sessions expects an integer >= 1".to_string())?;
                i += 2;
            }
            "--max-window" => {
                config.max_window = take("--max-window")?
                    .parse()
                    .map_err(|_| "--max-window expects an integer >= 1".to_string())?;
                i += 2;
            }
            "--arrange" => {
                config.arrange.get_or_insert_with(Default::default);
                i += 1;
            }
            "--arrange-grace" => {
                let grace = take("--arrange-grace")?
                    .parse()
                    .map_err(|_| "--arrange-grace expects an integer".to_string())?;
                config.arrange.get_or_insert_with(Default::default).grace = grace;
                i += 2;
            }
            "--listen" => {
                listen = Some(take("--listen")?);
                i += 2;
            }
            "--snapshot" => {
                snapshot = Some(take("--snapshot")?);
                i += 2;
            }
            "--idle-timeout" => {
                let ms: u64 = take("--idle-timeout")?
                    .parse()
                    .map_err(|_| "--idle-timeout expects milliseconds".to_string())?;
                tcp.idle_timeout = Some(Duration::from_millis(ms));
                i += 2;
            }
            other => match crate::serve_cmd::parse_fault_flag(other, value, &mut config.faults)? {
                Some(used) => i += used,
                None => return Err(format!("unknown daemon flag `{other}`")),
            },
        }
    }
    if config.max_sessions == 0 {
        return Err("--max-sessions expects an integer >= 1".into());
    }
    if config.max_window == 0 {
        return Err("--max-window expects an integer >= 1".into());
    }

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
        assert!(super::run(&["--bogus".into()]).is_err());
        assert!(super::run(&["--budget".into(), "-1".into()]).is_err());
        assert!(super::run(&["--max-sessions".into(), "0".into()]).is_err());
        assert!(super::run(&["--replan-after".into()]).is_err());
        assert!(super::run(&["--fault-rate".into(), "2".into()]).is_err());
        assert!(super::run(&["--outage-streams".into(), "-1".into()]).is_err());
        assert!(super::run(&["--retries".into(), "0".into()]).is_err());
        assert!(super::run(&["--idle-timeout".into(), "soon".into()]).is_err());
    }
}
