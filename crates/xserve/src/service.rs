//! The query service behind the HTTP surface.
//!
//! [`QueryService`] is the one-method seam between the server chassis
//! (sockets, admission, drain) and the engine: the lifecycle tests plug in
//! slow or failing stand-ins to provoke shedding and timeouts without
//! needing a pathological corpus. [`EngineService`] is the production
//! implementation over [`XRefineEngine`], applying the degradation
//! policy from ISSUE-3 at the protocol level: a per-query storage
//! failure is *that request's* `500` — the connection and the engine
//! keep serving.

use std::sync::Arc;

use obs::metrics::json_string;
use xrefine::{LiveEngine, QueryFailure, RefineOutcome, XRefineEngine};

use invindex::maint::{MaintOp, MaintReport};

/// SLCA Dewey labels beyond this many are elided from the JSON (the
/// count is always exact).
const MAX_SLCAS_LISTED: usize = 20;

/// A status code plus a JSON body, ready for the HTTP layer to frame.
#[derive(Debug, Clone)]
pub struct ServiceReply {
    pub status: u16,
    pub body: String,
}

/// One `POST /admin/update` request, decoded by the HTTP layer: the
/// operation and slot come from query parameters, the XML fragment (for
/// `add`) is the raw request body.
#[derive(Debug, Clone, Copy)]
pub struct UpdateRequest<'a> {
    /// `add`, `remove` or `compact`.
    pub op: &'a str,
    /// Record slot to delete (required for `remove`).
    pub slot: Option<usize>,
    /// Request body: the XML fragment to insert (required for `add`).
    pub body: &'a str,
}

/// What a connection thread does with an admitted query. Implementations
/// must be `Send + Sync`: one instance is shared by every connection
/// thread.
pub trait QueryService: Send + Sync {
    fn answer(&self, query: &str) -> ServiceReply;

    /// Applies a maintenance update. Read-only services keep the
    /// default: a `501` telling the operator the store is not live.
    fn update(&self, _req: &UpdateRequest<'_>) -> ServiceReply {
        ServiceReply {
            status: 501,
            body: "{\"error\":\"this server was started without --live: \
                    the store is read-only\"}"
                .to_string(),
        }
    }
}

/// One query through `engine`, rendered: `200` with the outcome, or
/// `500` with the keyword-attributed failure.
fn reply(engine: &XRefineEngine, query: &str) -> ServiceReply {
    match engine.answer_detailed(query) {
        Ok(outcome) => ServiceReply {
            status: 200,
            body: render_outcome(query, &outcome),
        },
        Err(failure) => ServiceReply {
            status: 500,
            body: render_failure(query, &failure),
        },
    }
}

/// Production service: answers queries through the shared engine.
pub struct EngineService {
    engine: Arc<XRefineEngine>,
}

impl EngineService {
    pub fn new(engine: Arc<XRefineEngine>) -> EngineService {
        EngineService { engine }
    }

    pub fn engine(&self) -> &Arc<XRefineEngine> {
        &self.engine
    }
}

impl QueryService for EngineService {
    fn answer(&self, query: &str) -> ServiceReply {
        reply(&self.engine, query)
    }
}

/// Live service: answers through the currently published engine of a
/// [`LiveEngine`] and applies `POST /admin/update` maintenance
/// transactions. Queries in flight keep the generation they pinned at
/// dispatch; a committing writer never blocks them.
pub struct LiveEngineService {
    live: Arc<LiveEngine>,
}

impl LiveEngineService {
    pub fn new(live: Arc<LiveEngine>) -> LiveEngineService {
        LiveEngineService { live }
    }

    pub fn live(&self) -> &Arc<LiveEngine> {
        &self.live
    }
}

impl QueryService for LiveEngineService {
    fn answer(&self, query: &str) -> ServiceReply {
        reply(&self.live.engine(), query)
    }

    fn update(&self, req: &UpdateRequest<'_>) -> ServiceReply {
        let bad = |detail: &str| ServiceReply {
            status: 400,
            body: format!("{{\"error\":{}}}", json_string(detail)),
        };
        let committed = match req.op {
            "add" => {
                let fragment = req.body.trim();
                if fragment.is_empty() {
                    return bad("op=add requires the XML fragment as the request body");
                }
                self.live.update(&[MaintOp::Add {
                    fragment: fragment.to_string(),
                }])
            }
            "remove" => {
                let Some(slot) = req.slot else {
                    return bad("op=remove requires a `slot` parameter");
                };
                self.live.update(&[MaintOp::Remove { slot }])
            }
            "compact" => {
                return match self.live.compact() {
                    Ok(ran) => ServiceReply {
                        status: 200,
                        body: format!(
                            "{{\"compacted\":{},\"generation\":{}}}",
                            ran,
                            self.live.generation()
                        ),
                    },
                    Err(e) => ServiceReply {
                        status: 500,
                        body: format!("{{\"error\":{}}}", json_string(&e.to_string())),
                    },
                };
            }
            other => {
                return bad(&format!(
                    "unknown op {other:?} (expected add, remove or compact)"
                ));
            }
        };
        match committed {
            Ok(report) => ServiceReply {
                status: 200,
                body: render_report(&report),
            },
            // A rejected transaction (unparseable fragment, slot out of
            // range) never touched the WAL: the client's input was bad.
            // Anything else is the store failing underneath us.
            Err(e) if e.is_corrupt() => bad(&e.to_string()),
            Err(e) => ServiceReply {
                status: 500,
                body: format!("{{\"error\":{}}}", json_string(&e.to_string())),
            },
        }
    }
}

/// Renders a committed maintenance transaction as JSON.
pub fn render_report(report: &MaintReport) -> String {
    format!(
        "{{\"seq\":{},\"generation\":{},\"records\":{},\"batch_ops\":{},\
         \"added\":{},\"removed\":{}}}",
        report.seq,
        report.generation,
        report.records,
        report.batch_ops,
        report.added,
        report.removed
    )
}

/// Renders a successful outcome as JSON. Hand-rolled like every other
/// emitter in the workspace; strings go through `json_string`.
pub fn render_outcome(query: &str, outcome: &RefineOutcome) -> String {
    let mut out = String::with_capacity(256);
    out.push_str("{\"query\":");
    out.push_str(&json_string(query));
    out.push_str(",\"original_ok\":");
    out.push_str(if outcome.original_ok { "true" } else { "false" });
    out.push_str(",\"refinements\":[");
    for (i, r) in outcome.refinements.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"keywords\":[");
        for (j, kw) in r.candidate.keywords.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&json_string(kw));
        }
        out.push_str("],\"dissimilarity\":");
        out.push_str(&format!("{:.6}", r.candidate.dissimilarity));
        out.push_str(",\"rank_score\":");
        out.push_str(&format!("{:.6}", r.rank_score));
        out.push_str(",\"slca_count\":");
        out.push_str(&r.slcas.len().to_string());
        out.push_str(",\"slcas\":[");
        for (j, d) in r.slcas.iter().take(MAX_SLCAS_LISTED).enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&json_string(&d.to_string()));
        }
        out.push_str("]}");
    }
    out.push_str("],\"advances\":");
    out.push_str(&outcome.advances.to_string());
    out.push_str(",\"random_accesses\":");
    out.push_str(&outcome.random_accesses.to_string());
    out.push_str(",\"degraded\":[");
    for (i, d) in outcome.degraded.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"keyword\":");
        out.push_str(&json_string(&d.keyword));
        out.push_str(",\"reason\":");
        out.push_str(&json_string(&d.reason));
        out.push('}');
    }
    out.push_str("]}");
    out
}

/// Renders a per-query failure as the `500` JSON envelope.
pub fn render_failure(query: &str, failure: &QueryFailure) -> String {
    let mut out = String::with_capacity(128);
    out.push_str("{\"query\":");
    out.push_str(&json_string(query));
    out.push_str(",\"error\":");
    out.push_str(&json_string(&failure.to_string()));
    out.push_str(",\"keyword\":");
    match &failure.keyword {
        Some(kw) => out.push_str(&json_string(kw)),
        None => out.push_str("null"),
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use xrefine::EngineConfig;

    fn tiny_engine() -> Arc<XRefineEngine> {
        let xml = "<bib><paper><title>xml keyword search</title>\
                   <year>2003</year></paper></bib>";
        Arc::new(XRefineEngine::from_xml(xml, EngineConfig::default()).unwrap())
    }

    #[test]
    fn engine_service_answers_with_json() {
        let svc = EngineService::new(tiny_engine());
        let reply = svc.answer("xml keyword");
        assert_eq!(reply.status, 200);
        assert!(
            reply.body.starts_with("{\"query\":\"xml keyword\""),
            "{}",
            reply.body
        );
        assert!(reply.body.contains("\"refinements\":["), "{}", reply.body);
        assert!(reply.body.contains("\"degraded\":[]"), "{}", reply.body);
        // The body must itself be well-formed enough to round-trip the
        // outer braces (cheap structural sanity check).
        assert!(reply.body.ends_with('}'), "{}", reply.body);
    }

    #[test]
    fn outcome_json_escapes_and_caps_slcas() {
        let svc = EngineService::new(tiny_engine());
        let reply = svc.answer("\"quoted\"\\path");
        assert_eq!(reply.status, 200);
        assert!(reply.body.contains("\\\"quoted\\\""), "{}", reply.body);
    }

    #[test]
    fn read_only_services_refuse_updates_with_501() {
        let svc = EngineService::new(tiny_engine());
        let reply = svc.update(&UpdateRequest {
            op: "add",
            slot: None,
            body: "<paper><title>x</title></paper>",
        });
        assert_eq!(reply.status, 501);
        assert!(reply.body.contains("--live"), "{}", reply.body);
    }

    fn tiny_live() -> LiveEngineService {
        use invindex::{build_streaming, persist};
        use kvstore::{DiskKv, FaultVfs, KvStore};
        let vfs = FaultVfs::new().as_dyn();
        let base = std::path::PathBuf::from("/svc/store.db");
        let built = build_streaming(
            "<bib><paper><title>xml keyword search</title></paper></bib>",
            1,
        )
        .unwrap();
        let mut disk = DiskKv::open_with_vfs(&vfs, &base.with_extension("db")).unwrap();
        persist::persist(&built, &mut disk).unwrap();
        disk.sync().unwrap();
        let live = LiveEngine::open_with_vfs(vfs, &base, EngineConfig::default()).unwrap();
        LiveEngineService::new(Arc::new(live))
    }

    #[test]
    fn live_service_applies_adds_removes_and_compactions() {
        let svc = tiny_live();
        let reply = svc.update(&UpdateRequest {
            op: "add",
            slot: None,
            body: "<paper><title>epoch snapshot</title></paper>",
        });
        assert_eq!(reply.status, 200, "{}", reply.body);
        assert!(reply.body.contains("\"seq\":1"), "{}", reply.body);
        assert!(reply.body.contains("\"records\":2"), "{}", reply.body);
        assert_eq!(svc.answer("epoch snapshot").status, 200);

        let reply = svc.update(&UpdateRequest {
            op: "remove",
            slot: Some(0),
            body: "",
        });
        assert_eq!(reply.status, 200, "{}", reply.body);
        assert!(reply.body.contains("\"records\":1"), "{}", reply.body);

        let reply = svc.update(&UpdateRequest {
            op: "compact",
            slot: None,
            body: "",
        });
        assert_eq!(reply.status, 200, "{}", reply.body);
        assert!(reply.body.contains("\"compacted\":true"), "{}", reply.body);
    }

    #[test]
    fn live_service_maps_client_mistakes_to_400() {
        let svc = tiny_live();
        // Unknown op, missing slot, empty body, unparseable fragment,
        // slot out of range: all client errors, none touch the WAL.
        for (req, expect) in [
            (
                UpdateRequest {
                    op: "explode",
                    slot: None,
                    body: "",
                },
                "unknown op",
            ),
            (
                UpdateRequest {
                    op: "remove",
                    slot: None,
                    body: "",
                },
                "slot",
            ),
            (
                UpdateRequest {
                    op: "add",
                    slot: None,
                    body: "   ",
                },
                "request body",
            ),
            (
                UpdateRequest {
                    op: "add",
                    slot: None,
                    body: "<unclosed>",
                },
                "error",
            ),
            (
                UpdateRequest {
                    op: "remove",
                    slot: Some(99),
                    body: "",
                },
                "error",
            ),
        ] {
            let reply = svc.update(&req);
            assert_eq!(reply.status, 400, "{:?}: {}", req.op, reply.body);
            assert!(reply.body.contains(expect), "{:?}: {}", req.op, reply.body);
        }
        assert_eq!(svc.live().maint().seq(), 0, "rejects must not commit");
    }
}
