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
//! Graph knobs size the graph once, at startup, through the knob
//! reader every binary shares (`sunbfs::cli`): `--scale` (10, 1..=40),
//! `--ranks` (4, 1..=65536), `--edge-factor` (16), `--e-threshold`
//! (256), `--h-threshold` (64, at most the E threshold), `--seed` (42),
//! `--queue-capacity` (256, 1..=2^20), `--batch-max` (64, 1..=64),
//! `--flush-deadline` (4), `--baseline`, `--path FILE` — a
//! `sunbfs-store` file to open instead of rebuilding. A mistyped or
//! out-of-range knob is refused by name (`knob "scale" must be …`),
//! never a silent fall-back to the default value. Transport knobs are
//! `--max-conns`, `--inflight-cap`, `--read-timeout-ms`,
//! `--write-timeout-ms`, `--tick-ms` (the last three at least 1: a
//! zero socket timeout is an error for every accepted connection, a
//! zero tick spins the service loop), `--shutdown-grace-ms`. Chaos knobs arm a seeded live
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

use sunbfs::cli::{self, Flags, U32, U64};
use sunbfs::common::{JsonValue, ToJson};
use sunbfs::net::FaultPlan;
use sunbfs::serve::{
    proto, BfsService, ChaosConfig, GraphSession, NetConfig, ServeConfig, SessionConfig, MAX_BATCH,
};

const USAGE: &str = "usage: bfs_server --tcp ADDR [--scale N] [--ranks N] [--edge-factor N] \
    [--e-threshold N] [--h-threshold N] [--seed N] [--queue-capacity N] [--batch-max N] \
    [--flush-deadline N] [--baseline] [--path FILE] [--max-conns N] [--inflight-cap N] \
    [--read-timeout-ms N] [--write-timeout-ms N] [--tick-ms N] [--shutdown-grace-ms N] \
    [--chaos-every N] [--chaos-seed N] [--chaos-max-events N]";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match Cli::parse(&args) {
        Ok(cli) => run(cli),
        Err(msg) => cli::refuse(format_args!("{msg}\n{USAGE}")),
    }
}

/// Build the resident session the command line asks for, honoring
/// `SUNBFS_FAULT_PLAN` like the benchmark driver does. With live chaos
/// armed, an absent env plan becomes [`FaultPlan::armed`] so chaos can
/// inject faults later without desyncing payload framing.
fn build_session(cli: &Cli) -> Result<GraphSession, String> {
    let plan = match FaultPlan::from_env(cli.session.mesh.num_ranks()) {
        Err(e) => return Err(format!("bad SUNBFS_FAULT_PLAN: {e}")),
        Ok(Some(events)) => FaultPlan::from_events(events),
        Ok(None) if cli.chaos.is_some() => FaultPlan::armed(),
        Ok(None) => FaultPlan::none(),
    };
    let session = match &cli.path {
        Some(path) => GraphSession::open_or_build(std::path::Path::new(path), cli.session, plan),
        None => GraphSession::load(cli.session, plan).map_err(Into::into),
    };
    session.map_err(|e| format!("load failed: {e}"))
}

struct Cli {
    addr: String,
    /// The graph to materialize.
    session: SessionConfig,
    serve: ServeConfig,
    /// A `sunbfs-store` file to open instead of rebuilding.
    path: Option<String>,
    net: NetConfig,
    /// Seeded live-fault schedule (`--chaos-every` > 0 turns it on).
    chaos: Option<ChaosConfig>,
}

impl Cli {
    /// Strict flag parsing: an unknown flag, a flag without its value
    /// and a refused knob are errors (exit 2).
    fn parse(args: &[String]) -> Result<Cli, String> {
        let (mut addr, mut path) = (None, None);
        let (mut scale, mut ranks, mut e, mut h) = (10, 4, 256, 64);
        let (mut edge_factor, mut seed) = (16, 42);
        let mut serve = ServeConfig::default();
        let mut net = NetConfig::default();
        let mut chaos = ChaosConfig::default();
        let ms = Duration::from_millis;
        let mut flags = Flags::new(args);
        while let Some(flag) = flags.next() {
            match flag {
                "--tcp" => addr = Some(flags.value()?.to_string()),
                "--baseline" => serve.measure_baseline = true,
                "--path" => path = Some(flags.value()?.to_string()),
                "--scale" => scale = flags.num(U64)?,
                "--ranks" => ranks = flags.num(U64)?,
                "--e-threshold" => e = flags.num(U64)?,
                "--h-threshold" => h = flags.num(U64)?,
                "--edge-factor" => edge_factor = flags.num(1..=u64::from(u32::MAX))? as u32,
                "--seed" => seed = flags.num(U64)?,
                "--queue-capacity" => serve.queue_capacity = flags.num(1..=1 << 20)? as usize,
                "--batch-max" => serve.batch_max = flags.num(1..=MAX_BATCH as u64)? as usize,
                "--flush-deadline" => serve.flush_deadline = flags.num(U32)? as u32,
                "--max-conns" => net.max_connections = flags.num(U64)? as usize,
                "--inflight-cap" => net.inflight_cap = flags.num(U64)? as usize,
                "--read-timeout-ms" => net.read_timeout = ms(flags.num(1..=u64::MAX)?),
                "--write-timeout-ms" => net.write_timeout = ms(flags.num(1..=u64::MAX)?),
                "--tick-ms" => net.tick_interval = ms(flags.num(1..=u64::MAX)?),
                "--shutdown-grace-ms" => net.shutdown_grace = ms(flags.num(U64)?),
                "--chaos-every" => chaos.every_queries = flags.num(U64)?,
                "--chaos-seed" => chaos.seed = flags.num(U64)?,
                "--chaos-max-events" => chaos.max_events = flags.num(U64)?,
                other => return Err(format!("unknown flag {other:?}")),
            }
        }
        let addr = addr.ok_or("--tcp ADDR is required")?;
        let sized = cli::sized_session(scale, ranks, e, h)?;
        Ok(Cli {
            addr,
            session: SessionConfig {
                edge_factor,
                seed,
                ..sized
            },
            serve,
            path,
            net,
            chaos: (chaos.every_queries > 0).then_some(chaos),
        })
    }
}

fn run(cli: Cli) {
    let session = match build_session(&cli) {
        Ok(s) => s,
        Err(detail) => {
            eprintln!("bfs_server: {detail}");
            std::process::exit(1);
        }
    };
    let loaded = proto::loaded_reply(&session);
    let mut service = BfsService::new(session, cli.serve);
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
        .field("queue_capacity", cli.serve.queue_capacity as u64)
        .field("batch_max", cli.serve.batch_max as u64)
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
