//! `bfs_server` — the BFS query service over TCP.
//!
//! The graph is built (or opened via `--path`) at startup, then served
//! to many connections at once over the newline-delimited-JSON protocol
//! of `sunbfs::serve::proto` (documented in `docs/SERVE.md`): one JSON
//! object per request line, one (or more) JSON objects per reply line,
//! every reply carrying a `"reply"` discriminator. Malformed input is
//! a typed `{"reply":"error","detail":...,"kind":...}` refusal and
//! never kills the server.
//!
//! ```text
//! {"cmd":"query","root":5}                     submit one root, tick once
//! {"cmd":"query","root":5,"deadline_ticks":3}  ... with a deadline budget
//! {"cmd":"batch","roots":[1,2,3]}              submit many, tick once
//! {"cmd":"update","edges":[[0,9],[3,7]]}       commit edge inserts, bump epoch
//! {"cmd":"health"}                             health state + transitions
//! {"cmd":"stats"}                              full ServeReport JSON
//! {"cmd":"drain"}                              flush everything pending
//! {"cmd":"shutdown"}                           drain, reply, exit 0
//! ```
//!
//! The process prints one `{"event":"listening",...}` line when ready —
//! the bound address, the service knobs, and under `"loaded"` what the
//! load did: vertices, load attempts, and whether `--path` opened the
//! store file or built and saved it — and one `{"event":"shutdown",...}`
//! line (transport summary + serve report) after a graceful drain.
//!
//! ```text
//! cargo run --release --example bfs_server -- --tcp 127.0.0.1:0 \
//!     --scale 14 --ranks 4 --queue-capacity 48 --flush-deadline 2
//! ```
//!
//! Graph knobs are the protocol's `load` knobs, validated by the
//! protocol's own `load` parser (`--scale` (10), `--ranks` (4),
//! `--edge-factor` (16), `--e-threshold` (256), `--h-threshold` (64),
//! `--seed` (42), `--queue-capacity` (256), `--batch-max` (64),
//! `--flush-deadline` (4), `--baseline`, `--path FILE` — a
//! `sunbfs-store` file to open instead of rebuilding): a mistyped knob
//! is that parser's typed refusal, never a silent fall-back to the
//! default value. Transport knobs are `--max-conns`,
//! `--inflight-cap`, `--read-timeout-ms`, `--write-timeout-ms`,
//! `--tick-ms`, `--shutdown-grace-ms`. Chaos knobs arm a seeded live
//! fault schedule against the resident cluster (`docs/FAULTS.md`):
//! `--chaos-every N` (one fault per N executed queries, 0 = off,
//! forces an armed fault plan), `--chaos-seed N`,
//! `--chaos-max-events N` (0 = unbounded). Unknown flags, a refused
//! knob and no arguments at all print the usage and exit 2.
//!
//! A panicked service or accept thread still produces the final
//! `{"event":"shutdown",...}` line — with a `join_error` field — and
//! exits 1 instead of taking the summary down with it.

use std::time::Duration;

use sunbfs::common::{JsonValue, ToJson};
use sunbfs::net::FaultPlan;
use sunbfs::serve::proto::{self, LoadRequest, Request};
use sunbfs::serve::{BfsService, ChaosConfig, GraphSession, NetConfig};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match Cli::parse(&args) {
        Ok(cli) => run(cli),
        Err(msg) => {
            eprintln!("bfs_server: {msg}");
            eprintln!(
                "usage: bfs_server --tcp ADDR [--scale N] [--ranks N] [--edge-factor N] \
                 [--e-threshold N] [--h-threshold N] [--seed N] [--queue-capacity N] \
                 [--batch-max N] [--flush-deadline N] [--baseline] [--path FILE] \
                 [--max-conns N] [--inflight-cap N] [--read-timeout-ms N] \
                 [--write-timeout-ms N] [--tick-ms N] [--shutdown-grace-ms N] \
                 [--chaos-every N] [--chaos-seed N] [--chaos-max-events N]"
            );
            std::process::exit(2);
        }
    }
}

/// Build the resident session from a validated load request, honoring
/// `SUNBFS_FAULT_PLAN` like the benchmark driver does. With `armed`,
/// an absent env plan becomes [`FaultPlan::armed`] so live chaos can
/// inject faults later without desyncing payload framing.
fn build_session(load: &LoadRequest, armed: bool) -> Result<GraphSession, String> {
    let plan = match FaultPlan::from_env(load.session.mesh.num_ranks()) {
        Err(e) => return Err(format!("bad SUNBFS_FAULT_PLAN: {e}")),
        Ok(Some(events)) => FaultPlan::from_events(events),
        Ok(None) if armed => FaultPlan::armed(),
        Ok(None) => FaultPlan::none(),
    };
    let session = match &load.path {
        Some(path) => GraphSession::open_or_build(std::path::Path::new(path), load.session, plan),
        None => GraphSession::load(load.session, plan).map_err(Into::into),
    };
    session.map_err(|e| format!("load failed: {e}"))
}

struct Cli {
    addr: String,
    load: LoadRequest,
    net: NetConfig,
    /// Seeded live-fault schedule (`--chaos-every` > 0 turns it on).
    chaos: Option<ChaosConfig>,
}

impl Cli {
    /// Strict flag parsing: unknown flags are an error (exit 2), and
    /// the graph knobs reuse the protocol's own `load` validation by
    /// synthesizing a `{"cmd":"load",...}` line from the flags — a
    /// non-numeric value travels as a string, so the refusal is the
    /// protocol's typed one (`load knob "scale" must be …`).
    fn parse(args: &[String]) -> Result<Cli, String> {
        let mut addr: Option<String> = None;
        let mut load = JsonValue::object().field("cmd", "load");
        let mut baseline = false;
        let mut net = NetConfig::default();
        let mut chaos = ChaosConfig::default();
        let mut chaos_on = false;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = |name: &str| -> Result<String, String> {
                it.next()
                    .map(String::from)
                    .ok_or_else(|| format!("flag {name} needs a value"))
            };
            let knob = |name: &str, raw: String| -> Result<u64, String> {
                raw.parse::<u64>()
                    .map_err(|_| format!("flag {name} needs an unsigned integer, got {raw:?}"))
            };
            match flag.as_str() {
                "--tcp" => addr = Some(value("--tcp")?),
                "--baseline" => baseline = true,
                "--path" => load = load.field("path", value("--path")?),
                "--scale" | "--ranks" | "--edge-factor" | "--e-threshold" | "--h-threshold"
                | "--seed" | "--queue-capacity" | "--batch-max" | "--flush-deadline" => {
                    let key = flag.trim_start_matches("--").replace('-', "_");
                    let raw = value(flag)?;
                    load = match raw.parse::<u64>() {
                        Ok(n) => load.field(&key, n),
                        Err(_) => load.field(&key, raw),
                    };
                }
                "--max-conns" => net.max_connections = knob(flag, value(flag)?)? as usize,
                "--inflight-cap" => net.inflight_cap = knob(flag, value(flag)?)? as usize,
                "--read-timeout-ms" => {
                    net.read_timeout = Duration::from_millis(knob(flag, value(flag)?)?);
                }
                "--write-timeout-ms" => {
                    net.write_timeout = Duration::from_millis(knob(flag, value(flag)?)?);
                }
                "--tick-ms" => net.tick_interval = Duration::from_millis(knob(flag, value(flag)?)?),
                "--shutdown-grace-ms" => {
                    net.shutdown_grace = Duration::from_millis(knob(flag, value(flag)?)?);
                }
                "--chaos-every" => {
                    chaos.every_queries = knob(flag, value(flag)?)?;
                    chaos_on = chaos.every_queries > 0;
                }
                "--chaos-seed" => chaos.seed = knob(flag, value(flag)?)?,
                "--chaos-max-events" => chaos.max_events = knob(flag, value(flag)?)?,
                other => return Err(format!("unknown flag {other:?}")),
            }
        }
        if baseline {
            load = load.field("baseline", true);
        }
        let addr = addr.ok_or("--tcp ADDR is required")?;
        let line = load.build().render();
        match proto::parse_request(&line) {
            Ok(Request::Load(l)) => Ok(Cli {
                addr,
                load: *l,
                net,
                chaos: chaos_on.then_some(chaos),
            }),
            Ok(_) => unreachable!("synthesized line is a load command"),
            Err(e) => Err(e.to_string()),
        }
    }
}

fn run(cli: Cli) {
    let session = match build_session(&cli.load, cli.chaos.is_some()) {
        Ok(s) => s,
        Err(detail) => {
            eprintln!("bfs_server: {detail}");
            std::process::exit(1);
        }
    };
    let loaded = proto::loaded_reply(&session);
    let mut service = BfsService::new(session, cli.load.serve);
    if let Some(chaos) = cli.chaos {
        service = service.with_chaos(chaos);
    }
    let server = match sunbfs::serve::serve(service, &cli.addr, cli.net) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("bfs_server: bind {} failed: {e}", cli.addr);
            std::process::exit(1);
        }
    };
    let listening = JsonValue::object()
        .field("event", "listening")
        .field("addr", server.local_addr().to_string())
        .field("queue_capacity", cli.load.serve.queue_capacity as u64)
        .field("batch_max", cli.load.serve.batch_max as u64)
        .field("max_connections", cli.net.max_connections as u64)
        .field("loaded", loaded)
        .build();
    println!("{}", listening.render());
    // Blocks until a client sends {"cmd":"shutdown"} (or the process is
    // killed). The final line carries the transport summary and the
    // serve report for post-mortems — even when a server thread
    // panicked, in which case it names the panic and the process
    // exits 1.
    let outcome = server.join();
    let panicked = outcome.panicked();
    let join_error = outcome
        .service_join_error
        .as_deref()
        .or(outcome.accept_join_error.as_deref());
    let farewell = JsonValue::object()
        .field("event", "shutdown")
        .field("net", outcome.summary.to_json())
        .field(
            "serve",
            outcome.service.as_ref().map(|svc| svc.report().to_json()),
        )
        .field("join_error", join_error)
        .build();
    println!("{}", farewell.render());
    if panicked {
        std::process::exit(1);
    }
}
