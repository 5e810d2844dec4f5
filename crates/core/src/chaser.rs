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
//! succeeds, the chaser follows mappings 2–5 for every query class named
//! in the request's hints and piggybacks the record sets on the reply.
//! The client ([`crate::service::Hns`]) stashes them, collapsing the cold
//! path from six round trips to at most two (the batch itself plus the
//! final host-address lookup against public BIND).
//!
//! Chasing is best-effort: a broken link just stops the chase for that
//! hint, and the client falls back to fetching the missing mappings
//! sequentially.

use std::collections::HashSet;
use std::sync::Arc;

use bindns::message::Question;
use bindns::name::DomainName;
use bindns::rr::{RType, ResourceRecord};
use bindns::server::AdditionalProvider;
use bindns::ZoneDb;

use crate::meta::{
    context_key_at, nsm_info_key_at, nsm_name_key_at, records_to_fetched, MetaStore,
};
use crate::nsm::NsmInfo;
use crate::query::QueryClass;

/// Chases meta mappings 2–5 inside the meta server's own zone database.
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

    /// Decodes a meta record set's payload strings, or `None` if the set
    /// is malformed (which ends the chase for that link).
    fn payloads(records: &[ResourceRecord]) -> Option<Vec<String>> {
        records_to_fetched(records).ok().map(|f| f.value)
    }

    /// Looks up one meta key in the zone database, returning its records.
    fn fetch(db: &ZoneDb, key: &DomainName) -> Option<Vec<ResourceRecord>> {
        db.lookup(key, RType::Unspec).ok()
    }
}

impl AdditionalProvider for MetaChaser {
    fn additional(
        &self,
        db: &ZoneDb,
        question: &Question,
        answer: &[ResourceRecord],
        hints: &[String],
    ) -> Vec<(DomainName, Vec<ResourceRecord>)> {
        let mut out: Vec<(DomainName, Vec<ResourceRecord>)> = Vec::new();
        let mut seen: HashSet<DomainName> = HashSet::new();
        seen.insert(question.name.clone());

        // The primary answer must be a context record; its payload names
        // the name service that anchors every chased mapping.
        let Some(payloads) = Self::payloads(answer) else {
            return out;
        };
        let Ok(ctx_info) = MetaStore::parse_context(&payloads) else {
            return out;
        };

        let push = |out: &mut Vec<(DomainName, Vec<ResourceRecord>)>,
                    seen: &mut HashSet<DomainName>,
                    key: DomainName,
                    records: Vec<ResourceRecord>| {
            if seen.insert(key.clone()) {
                out.push((key, records));
            }
        };

        for hint in hints {
            // Mapping 2: (name service, query class) → NSM name.
            let Ok(k2) = nsm_name_key_at(&self.origin, &ctx_info.name_service, hint) else {
                continue;
            };
            let Some(r2) = Self::fetch(db, &k2) else {
                continue;
            };
            let Some(p2) = Self::payloads(&r2) else {
                continue;
            };
            let Ok(nsm_name) = MetaStore::parse_nsm_name(&p2) else {
                continue;
            };
            push(&mut out, &mut seen, k2, r2);

            // Mapping 3: NSM name → binding information (six records).
            let Ok(k3) = nsm_info_key_at(&self.origin, &nsm_name) else {
                continue;
            };
            let Some(r3) = Self::fetch(db, &k3) else {
                continue;
            };
            let Some(p3) = Self::payloads(&r3) else {
                continue;
            };
            let Ok(info) = NsmInfo::from_records(&nsm_name, &p3) else {
                continue;
            };
            push(&mut out, &mut seen, k3, r3);

            // Mapping 4: the NSM host's context → its name service.
            let Ok(k4) = context_key_at(&self.origin, info.host_context.as_str()) else {
                continue;
            };
            let Some(r4) = Self::fetch(db, &k4) else {
                continue;
            };
            let Some(p4) = Self::payloads(&r4) else {
                continue;
            };
            let Ok(host_ctx) = MetaStore::parse_context(&p4) else {
                continue;
            };
            push(&mut out, &mut seen, k4, r4);

            // Mapping 5: (host's NS, hostaddress) → host-address NSM name.
            let Ok(k5) = nsm_name_key_at(
                &self.origin,
                &host_ctx.name_service,
                QueryClass::host_address().as_str(),
            ) else {
                continue;
            };
            let Some(r5) = Self::fetch(db, &k5) else {
                continue;
            };
            push(&mut out, &mut seen, k5, r5);
        }
        out
    }
}

impl std::fmt::Debug for MetaChaser {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetaChaser")
            .field("origin", &self.origin.as_str())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meta::{MetaStore, META_TTL};
    use crate::name::{Context, NameMapping};
    use crate::nsm::SuiteTag;
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
            host_name: "june.cs.washington.edu".into(),
            host_context: ctx("bind-uw"),
            program: ProgramId(300_001),
            port: 1025,
            suite: SuiteTag::Sun,
            version: 1,
            owner: "hcs".into(),
        })
        .expect("info");
        meta.register_nsm("BIND", &QueryClass::host_address(), "nsm-ha-bind")
            .expect("ha map");
        (world, meta, dep)
    }

    #[test]
    fn chaser_attaches_mappings_two_through_five() {
        let (world, meta, _dep) = setup();
        let key = meta.context_key(&ctx("bind-uw")).expect("key");
        let (result, _, delta) =
            world.measure(|| meta.fetch_batch(&key, &["hrpcbinding".to_string()]));
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
            host_name: "ivory.cs.washington.edu".into(),
            host_context: ctx("ch-uw"),
            program: ProgramId(300_001),
            port: 1025,
            suite: SuiteTag::Sun,
            version: 1,
            owner: "hcs".into(),
        })
        .expect("info");
        let key = meta.context_key(&ctx("bind-uw")).expect("key");
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
        let key = meta.context_key(&ctx("bind-uw")).expect("key");
        let batch = world
            .measure(|| meta.fetch_batch(&key, &["mailboxlocation".to_string()]))
            .0
            .expect("batch");
        assert!(batch.primary.is_some());
        assert!(batch.additional.is_empty());
    }
}
