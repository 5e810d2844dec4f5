//! Server-side meta-mapping chaser for the batched `FindNSM` pipeline.
//!
//! The cold `FindNSM` path walks five meta mappings (context → name
//! service, (NS, query class) → NSM name, NSM name → binding info, host
//! context → NS, (NS, `hostaddress`) → HA-NSM name), each a separate
//! round trip to the meta BIND. All five live in the same zone, so the
//! meta server itself can walk the chain once the first answer is known.
//!
//! [`MetaChaser`] is installed on the meta [`bindns::server::BindServer`]
//! as its [`AdditionalProvider`]: when an `MQUERY` for a context record
//! succeeds, the chaser runs the client's own chain (`meta::chase`,
//! mappings 2–5) against the zone database for every query class named
//! in the request's hints and piggybacks each record set it read on the
//! reply — the keys the server attaches are the keys the client asks
//! for. The client ([`crate::service::Hns`]) stashes them, collapsing
//! the cold path from six round trips to at most two (the batch itself
//! plus the final host-address lookup against public BIND).
//!
//! Chasing is best-effort: a broken link just stops the chase for that
//! hint, and the client falls back to fetching the missing mappings
//! sequentially.

use std::collections::HashSet;
use std::sync::Arc;

use bindns::message::Question;
use bindns::name::DomainName;
use bindns::rr::{RType, Records};
use bindns::server::AdditionalProvider;
use bindns::ZoneDb;
use hrpc::RpcError;

use crate::error::HnsError;
use crate::meta::{chase, decode_records, Held, Step};

/// Chases meta mappings 2–5 inside the meta server's own zone database.
#[derive(Debug)]
pub struct MetaChaser {
    origin: DomainName,
}

impl MetaChaser {
    /// Creates a chaser for the meta zone rooted at `origin`
    /// (conventionally `hns`), ready to install via
    /// [`bindns::server::BindServer::set_additional_provider`].
    pub fn new(origin: DomainName) -> Arc<Self> {
        Arc::new(MetaChaser { origin })
    }
}

impl AdditionalProvider for MetaChaser {
    fn additional(
        &self,
        db: &ZoneDb,
        question: &Question,
        answer: &Records,
        hints: &[String],
    ) -> Vec<Records> {
        let mut out: Vec<Records> = Vec::new();
        // The primary answer must be a context record; its payload names
        // the name service that anchors every chased mapping.
        let Ok(primary) = decode_records(&question.name, answer) else {
            return out;
        };
        let Ok(ctx_info) = primary.value.as_context() else {
            return out;
        };
        // A set rides back once, however many hints (or mapping 4, for an
        // NSM hosted in the queried context) lead to it.
        let mut seen = HashSet::from([question.name.clone()]);
        for hint in hints {
            let fetch = &mut |_: Step<'_>, key: &DomainName| {
                let records = db
                    .lookup(key, RType::Unspec)
                    .map_err(|e| HnsError::Rpc(RpcError::NotFound(e.to_string())))?;
                let set = decode_records(key, &records)?;
                if seen.insert(key.clone()) {
                    out.push(records);
                }
                Ok(Held::Owned(set.value))
            };
            // A broken link ends this hint's chase; what was read up to
            // it has been attached.
            let _ = chase(
                &self.origin,
                &ctx_info.name_service,
                hint,
                fetch,
                |_| Ok(()),
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meta::{MetaStore, META_TTL};
    use crate::name::{Context, NameMapping};
    use crate::nsm::{NsmBinding, NsmInfo, SuiteTag};
    use crate::query::QueryClass;
    use bindns::server::{deploy, single_zone_server, BindDeployment};
    use bindns::zone::Zone;
    use hrpc::net::RpcNet;
    use hrpc::ProgramId;
    use simnet::world::World;

    fn ctx(s: &str) -> Context {
        Context::new(s).expect("ctx")
    }

    fn origin() -> DomainName {
        DomainName::parse("hns").expect("origin")
    }

    /// Meta BIND with a chaser installed, populated with the full mapping
    /// chain for the `bind-uw` context and the `hrpcbinding` query class.
    fn setup() -> (Arc<simnet::World>, MetaStore, BindDeployment) {
        let world = World::paper();
        let hns_host = world.add_host("hns-host");
        let meta_host = world.add_host("meta-bind-host");
        let net = RpcNet::new(Arc::clone(&world));
        let zone = Zone::new(origin(), META_TTL);
        let dep = deploy(&net, meta_host, single_zone_server("meta-bind", zone, true));
        dep.server
            .set_additional_provider(MetaChaser::new(origin()));
        let resolver = bindns::HrpcResolver::new(net, hns_host, dep.hrpc_binding);
        let meta = MetaStore::new(resolver, origin());

        meta.register_context(&ctx("bind-uw"), "BIND", &NameMapping::Identity)
            .expect("ctx");
        meta.register_nsm("BIND", &QueryClass::hrpc_binding(), "nsm-hrpc-bind")
            .expect("map");
        meta.register_nsm_info(&NsmInfo {
            nsm_name: "nsm-hrpc-bind".into(),
            binding: NsmBinding {
                host_name: "june.cs.washington.edu".into(),
                host_context: ctx("bind-uw"),
                program: ProgramId(300_001),
                port: 1025,
                suite: SuiteTag::Sun,
                version: 1,
                owner: "hcs".into(),
            },
        })
        .expect("info");
        meta.register_nsm("BIND", &QueryClass::host_address(), "nsm-ha-bind")
            .expect("ha map");
        (world, meta, dep)
    }

    #[test]
    fn chaser_attaches_mappings_two_through_five() {
        let (world, meta, _dep) = setup();
        let key = Step::Context(&ctx("bind-uw")).key(&origin()).expect("key");
        let (result, ledger) =
            world.measure(|| meta.fetch_batch(&key, &["hrpcbinding".to_string()]));
        let delta = ledger.counters();
        let batch = result.expect("batch");
        assert_eq!(delta.remote_calls, 1, "whole chain in one round trip");
        assert!(batch.primary.is_some());
        // Mapping 4's key equals the primary (same context), so the chaser
        // dedupes it: mappings 2, 3, and 5 come back as additional sets.
        let owners: Vec<String> = batch
            .additional
            .iter()
            .map(|(n, _)| n.to_string())
            .collect();
        assert_eq!(owners.len(), 3, "additional sets: {owners:?}");
        assert!(owners[0].starts_with("map.bind--hrpcbinding."));
        assert!(owners[1].starts_with("info.nsm-hrpc-bind."));
        assert!(owners[2].starts_with("map.bind--hostaddress."));
        let info_set = &batch.additional[1].1;
        assert_eq!(info_set.rrs, NsmInfo::RECORDS);
    }

    #[test]
    fn chaser_with_distinct_host_context_attaches_four_sets() {
        let (world, meta, _dep) = setup();
        // An NSM whose host lives in a different context: mapping 4 is no
        // longer a duplicate of the primary, so all four sets come back.
        meta.register_context(&ctx("ch-uw"), "Clearinghouse", &NameMapping::Identity)
            .expect("ctx");
        meta.register_nsm("Clearinghouse", &QueryClass::host_address(), "nsm-ha-ch")
            .expect("ha map");
        meta.register_nsm_info(&NsmInfo {
            nsm_name: "nsm-hrpc-bind".into(),
            binding: NsmBinding {
                host_name: "ivory.cs.washington.edu".into(),
                host_context: ctx("ch-uw"),
                program: ProgramId(300_001),
                port: 1025,
                suite: SuiteTag::Sun,
                version: 1,
                owner: "hcs".into(),
            },
        })
        .expect("info");
        let key = Step::Context(&ctx("bind-uw")).key(&origin()).expect("key");
        let batch = world
            .measure(|| meta.fetch_batch(&key, &["hrpcbinding".to_string()]))
            .0
            .expect("batch");
        assert_eq!(batch.additional.len(), 4);
        let owners: Vec<String> = batch
            .additional
            .iter()
            .map(|(n, _)| n.to_string())
            .collect();
        assert!(owners[2].starts_with("ctx.ch-uw."));
        assert!(owners[3].starts_with("map.clearinghouse--hostaddress."));
    }

    #[test]
    fn broken_chain_degrades_to_partial_batch() {
        let (world, meta, _dep) = setup();
        // Unknown query class: mapping 2 fails immediately, nothing chased.
        let key = Step::Context(&ctx("bind-uw")).key(&origin()).expect("key");
        let batch = world
            .measure(|| meta.fetch_batch(&key, &["mailboxlocation".to_string()]))
            .0
            .expect("batch");
        assert!(batch.primary.is_some());
        assert!(batch.additional.is_empty());
    }
}
