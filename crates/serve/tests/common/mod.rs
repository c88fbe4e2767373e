//! What the TCP test files share: bringing a server up on an ephemeral
//! port and talking to it through the library's line client.

use std::time::Duration;

use sunbfs_common::JsonValue;
use sunbfs_net::FaultPlan;
use sunbfs_serve::{
    BfsService, GraphSession, LineClient, NetConfig, ServeConfig, SessionConfig, Target, TcpServer,
};

pub fn start(scale: u32, ranks: usize, serve_cfg: ServeConfig, net_cfg: NetConfig) -> TcpServer {
    let session =
        GraphSession::load(SessionConfig::small(scale, ranks), FaultPlan::none()).expect("load");
    let svc = BfsService::new(session, serve_cfg);
    sunbfs_serve::serve(svc, "127.0.0.1:0", net_cfg).expect("bind")
}

/// A line client whose `recv` gives up long after any reply is due.
pub fn connect(server: &TcpServer) -> LineClient {
    LineClient::connect(server.local_addr(), Duration::from_secs(60)).expect("connect")
}

/// How the load generator is told about a server started by [`start`].
pub fn target(server: &TcpServer, scale: u32, net_cfg: NetConfig) -> Target {
    Target {
        addr: server.local_addr().to_string(),
        root_max: 1 << scale,
        tick: net_cfg.tick_interval,
    }
}

pub fn str_field<'a>(v: &'a JsonValue, key: &str) -> &'a str {
    v.get(key).and_then(JsonValue::as_str).unwrap_or("<none>")
}
