//! `dlfmd` — a standalone DLFM daemon serving real sockets.
//!
//! Runs the full DLFM (local database, service daemons, DLFF) in its own
//! OS process and listens on a TCP or Unix-domain socket; host databases
//! in other processes attach with `HostDb::attach_dlfm_url`. This is the
//! deployment shape of the paper (host database and file manager as
//! separate processes, usually separate machines).
//!
//! ```text
//! dlfmd --listen unix:///tmp/dlfm.sock [--seed-files N] [--pooled W:Q] [--watch]
//! ```
//!
//! * `--listen URL` — `tcp://host:port` (port 0 picks one) or
//!   `unix:///path.sock`. Default `unix:///tmp/dlfmd.sock`.
//! * `--seed-files N` — pre-create `/seed/file0..N` on the file server so
//!   remote workloads have something to link.
//! * `--pooled W:Q` — pooled agent model with W workers over a depth-Q run
//!   queue (default: dedicated agents, the paper's process model).
//! * `--watch` — arm the telemetry watchdog with the stock rule set; the
//!   process exits nonzero if any health rule fired.
//!
//! Prints `READY <bound-url>` on stdout once the listener is up, then
//! serves until stdin reaches EOF (the parent closing the pipe is the
//! shutdown signal — no signal handling needed for CI orchestration).

use std::io::Read;
use std::sync::Arc;

use dlfm::{default_watch_rules, DlfmConfig, DlfmServer, Transport};

fn usage() -> ! {
    eprintln!(
        "usage: dlfmd [--listen URL] [--seed-files N] [--pooled W:Q] [--watch]\n\
         URL is tcp://host:port or unix:///path.sock"
    );
    std::process::exit(2);
}

fn main() {
    let mut listen = "unix:///tmp/dlfmd.sock".to_string();
    let mut seed_files = 0usize;
    let mut pooled: Option<(usize, usize)> = None;
    let mut watch = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--listen" => listen = args.next().unwrap_or_else(|| usage()),
            "--seed-files" => {
                seed_files = args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage());
            }
            "--pooled" => {
                let spec = args.next().unwrap_or_else(|| usage());
                let (w, q) = spec.split_once(':').unwrap_or_else(|| usage());
                match (w.parse(), q.parse()) {
                    (Ok(w), Ok(q)) => pooled = Some((w, q)),
                    _ => usage(),
                }
            }
            "--watch" => watch = true,
            _ => usage(),
        }
    }

    let transport = match dlrpc::Endpoint::parse(&listen) {
        Ok(dlrpc::Endpoint::Tcp(a)) => Transport::Tcp(a),
        Ok(dlrpc::Endpoint::Unix(p)) => Transport::Unix(p.display().to_string()),
        _ => {
            eprintln!("dlfmd: --listen must be tcp:// or unix://, got {listen:?}");
            std::process::exit(2);
        }
    };

    let mut config = DlfmConfig { listen: transport, ..DlfmConfig::default() };
    if let Some((workers, queue_depth)) = pooled {
        config.agent_model = dlfm::AgentModel::pooled(workers, queue_depth);
    }

    let fs = Arc::new(filesys::FileSystem::new());
    for i in 0..seed_files {
        fs.create(&format!("/seed/file{i}"), "user", b"seed-data")
            .expect("seeding the file server cannot fail");
    }
    let archive = Arc::new(archive::ArchiveServer::new());
    let server = DlfmServer::start(config, fs, archive);
    let watchdog = watch.then(|| {
        let config = obs::WatchConfig {
            interval: std::time::Duration::from_millis(200),
            rules: default_watch_rules(),
            ..obs::WatchConfig::default()
        };
        obs::Watchdog::new(config)
            .provider("dlfm", server.metrics_provider())
            .section("dlfm_status", server.status_provider())
            .spawn()
    });

    let bound = server.listen_addr().expect("dlfmd always binds a socket listener");
    // The parent parses this line; keep it first and exact. Stdout is
    // block-buffered on a pipe, so flush explicitly.
    {
        use std::io::Write;
        let mut out = std::io::stdout();
        writeln!(out, "READY {bound}").expect("stdout");
        out.flush().expect("stdout flush");
    }

    // Serve until the parent closes our stdin.
    let mut sink = Vec::new();
    let _ = std::io::stdin().read_to_end(&mut sink);

    // Dropping the handle stops the sampler before the server goes down.
    let alerts = watchdog.map_or(0, |w| w.alerts());
    drop(server);
    if alerts > 0 {
        eprintln!("dlfmd: {alerts} watchdog alerts fired during the run");
        std::process::exit(1);
    }
}
