//! The calibrated cost model.
//!
//! Every virtual-time constant in the reproduction lives here, each traced
//! to a measured primitive in the paper (§3, Tables 3.1/3.2) or documented
//! as a calibration residual. Composite results — e.g. the 460 ms cold
//! `FindNSM`, or any cell of Table 3.1 — are *not* stored anywhere: they
//! emerge from the number of remote calls, name-service accesses, and
//! marshalling operations the simulated system actually performs, priced by
//! these constants.
//!
//! | Constant | Paper evidence | `Term` it prices |
//! |---|---|---|
//! | `rpc_rtt_sun` = 33 ms | "estimating C(remote call) as 33 msec." | `RemoteRequest`, `ZoneTransfer` |
//! | `rpc_rtt_courier` = 38, `rpc_rtt_raw_tcp` = 22, `rpc_rtt_raw_udp` = 25 | "The remote call to the NSM takes 22-38 msec., depending on the RPC system used." | `RemoteRequest`, `ZoneTransfer` |
//! | `per_kb` = 0.8 ms | calibrated: network cost per kilobyte on the wire | `RemoteRequest`, `ReplyBytes` |
//! | `local_call` = 0.02 ms | "C(local call) is effectively zero" | `LocalCall` |
//! | `dns_udp_rtt` + `bind_service` = 27 ms | "a BIND name to address lookup takes 27 msec." | `RemoteRequest` (`DnsUdp`), `BindService` |
//! | `portmap_service` = 1 ms | the portmapper's or exchange listener's service time | `PortmapService` |
//! | `rpc_rtt_courier` + `ch_auth` + `ch_disk` + `ch_service` = 156 ms | "a Clearinghouse name to address lookup takes 156 msec." (authenticated, disk-bound) | `ChAuth`, `ChRead`, `ChDiskReads` |
//! | generated marshalling (miss 20.23/32.34, hit 11.11/26.17 ms for 1/6 RRs) | Table 3.2 | `GeneratedMiss`, `ResolverQuery`, `ResolverBatch`, `BindingAssembly`, `CacheHit` (`Marshalled`) |
//! | demarshalled cache hit 0.83/1.22 ms | Table 3.2 | `CacheHit` (`Demarshalled`) |
//! | `cache_probe` = 0.05 ms | a miss costs "about 0.1% of the total times" | `CacheProbe` |
//! | standard BIND routines 0.65/2.6 ms | "the standard BIND marshalling routines ... take .65 msec. and 2.6 msec." | `FastMarshal` |
//! | `axfr_base` + 2 KB × `axfr_per_kb` = 390 ms | "The actual preload cost was measured to be about 390 msec." for "about 2KB" | `ZoneTransfer` |
//! | interim file scheme total 200 ms | "Binding using this scheme took 200 msec." | `InterimFileBind` (with a portmapper call) |
//! | reregistered Clearinghouse total 166 ms | "we found that binding took 166 msec." | `ReregAssemble` (after a Clearinghouse lookup), `ReregPerName` |
//! | `bind_resolver_overhead` = 15.5 ms | calibration residual: per-meta-lookup cost of the HRPC-to-BIND interface beyond RTT+service+marshalling, fitted so cold `FindNSM` ≈ 460 ms | `ResolverQuery`, `ResolverBatch` |
//! | `findnsm_arg_marshal`, `nsm_arg_marshal`, `agent_arg_marshal`, `nsm_assemble` | calibration residuals of Table 3.1 (remote hops, NSM assembly) | `FindNsmArgMarshal`, `NsmArgMarshal`, `AgentArgMarshal`, `NsmAssemble`, `BindingAssembly` |
//! | `hns_bookkeeping` = 0.5 ms | calibrated: HNS work per meta mapping (hashing, context parsing) | `HnsBookkeeping` |
//!
//! Nothing outside this module reads a constant: a component charges a
//! [`Term`] (`World::charge`), and [`CostModel::price`] is the one place
//! a term becomes milliseconds. A term carries the counts its price
//! depends on (bytes, records, reads); an amount that is no calibrated
//! constant — a retry backoff, a latency spike — carries its own
//! milliseconds.

/// Milliseconds as a convenience alias for the calibrated constants.
pub type Ms = f64;

/// Which cache storage form is charged on a hit (Table 3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CacheForm {
    /// Entries kept in wire form; every hit pays a full demarshal through
    /// the generated routines.
    Marshalled,
    /// Entries kept as decoded values; a hit is a map lookup plus copy.
    Demarshalled,
}

/// The RPC protocol suites whose per-call overhead differs (§3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RpcSuiteKind {
    /// Sun RPC emulation (XDR over TCP, portmapper binding).
    Sun,
    /// Xerox Courier emulation (Courier encoding over SPP).
    Courier,
    /// Raw HRPC over a TCP-style byte stream.
    RawTcp,
    /// Raw HRPC over a UDP-style datagram.
    RawUdp,
    /// A native DNS UDP exchange (the standard resolver path; lighter than
    /// any HRPC suite because it skips the HRPC control layer).
    DnsUdp,
}

/// One thing that costs virtual time: what a component charges
/// (`World::charge`) and [`CostModel::price`] prices. A variant carries
/// the counts its price depends on; the module table says which constants
/// price it.
pub enum Term<'a> {
    /// A same-host call.
    LocalCall,
    /// One attempt of a remote call under `suite` whose request carries
    /// `bytes`: the suite's round trip plus the bytes on the wire.
    RemoteRequest {
        /// The protocol suite the call runs over.
        suite: RpcSuiteKind,
        /// The request's length.
        bytes: usize,
    },
    /// The bytes of a reply on the wire.
    ReplyBytes {
        /// The reply's length.
        bytes: usize,
    },
    /// A caller's wait before retrying an unanswered call.
    RetryBackoff {
        /// The wait, as the retry policy sets it.
        ms: Ms,
    },
    /// The extra latency of an attempt under an injected spike.
    LatencySpike {
        /// The spike's extra latency.
        ms: Ms,
    },
    /// A portmapper's or Courier exchange listener's service time.
    PortmapService,
    /// A zone transfer of `bytes` beyond the round trip of the `suite`
    /// call that carried it (the preload path).
    ZoneTransfer {
        /// The suite of the call that carried the transfer.
        suite: RpcSuiteKind,
        /// The zone data shipped.
        bytes: usize,
    },
    /// A BIND server's service time for one request.
    BindService,
    /// A Clearinghouse access's authentication.
    ChAuth,
    /// A Clearinghouse access's disk retrieval and service time.
    ChRead,
    /// `n` further disk reads of one Clearinghouse request.
    ChDiskReads {
        /// The reads beyond the first.
        n: usize,
    },
    /// Finding out whether a cache holds an entry.
    CacheProbe,
    /// Reading a cached entry of `rrs` records kept in `form`.
    CacheHit {
        /// How the cache keeps its entries.
        form: CacheForm,
        /// The entry's records.
        rrs: usize,
    },
    /// Generated marshalling of a message of `rrs` records (at least one).
    GeneratedMiss {
        /// The message's records.
        rrs: usize,
    },
    /// An HRPC-to-BIND query's demarshalling of an answer of `rrs`
    /// records (at least one), plus the interface's overhead.
    ResolverQuery {
        /// The answer's records.
        rrs: usize,
    },
    /// A batched HRPC-to-BIND query: the interface's overhead once, and
    /// the demarshalling of each returned set, of the records `sets`
    /// yields for it (at least one each), in order.
    ResolverBatch {
        /// Each returned set's records.
        sets: &'a mut dyn Iterator<Item = usize>,
    },
    /// Hand-written (standard BIND library) marshalling of `rrs` records
    /// (at least one).
    FastMarshal {
        /// The message's records.
        rrs: usize,
    },
    /// The HNS's bookkeeping for one meta mapping.
    HnsBookkeeping,
    /// Marshalling a `FindNSM` call's arguments and results on a remote
    /// client-to-HNS hop.
    FindNsmArgMarshal,
    /// Marshalling an NSM call's arguments and results on a remote
    /// client-to-NSM hop.
    NsmArgMarshal,
    /// Marshalling on a remote client-to-agent hop.
    AgentArgMarshal,
    /// An NSM's assembly of a binding it has cached.
    NsmAssemble,
    /// An NSM's assembly of a fresh binding, marshalled as `rrs` records
    /// through the generated routines.
    BindingAssembly {
        /// The binding structure's worth of records.
        rrs: usize,
    },
    /// The interim scheme's read and parse of the local binding file.
    InterimFileBind,
    /// The reregistered-Clearinghouse scheme's assembly after its lookup.
    ReregAssemble,
    /// Pushing one name into the reregistration scheme's global store.
    ReregPerName,
}

/// All calibrated virtual-time constants (milliseconds), read only by
/// [`CostModel::price`].
#[derive(Debug, Clone)]
pub struct CostModel {
    /// A local (same-address-space or same-host) procedure call.
    /// "C(local call) is effectively zero in the time scale of the other
    /// terms."
    local_call: Ms,
    /// Per-remote-call overhead of the Sun RPC suite (round trip,
    /// transport + control, excluding argument marshalling).
    rpc_rtt_sun: Ms,
    /// Per-remote-call overhead of the Courier suite.
    rpc_rtt_courier: Ms,
    /// Per-remote-call overhead of the raw TCP-style suite.
    rpc_rtt_raw_tcp: Ms,
    /// Per-remote-call overhead of the raw UDP-style suite.
    rpc_rtt_raw_udp: Ms,
    /// Additional network cost per kilobyte transferred.
    per_kb: Ms,

    /// Round trip of a native DNS UDP query (lighter than any RPC suite).
    dns_udp_rtt: Ms,
    /// BIND server per-lookup service time (in primary memory, no auth).
    bind_service: Ms,
    /// Per-operation service time of the Sun portmapper.
    portmap_service: Ms,

    /// Clearinghouse per-access authentication cost.
    ch_auth: Ms,
    /// Clearinghouse per-access disk retrieval cost.
    ch_disk: Ms,
    /// Clearinghouse per-lookup CPU service time.
    ch_service: Ms,

    /// Generated (stub-compiler) marshalling on a cache miss: fixed part.
    gen_miss_base: Ms,
    /// Generated marshalling on a miss: per resource record.
    gen_miss_per_rr: Ms,
    /// Demarshal of a marshalled-form cache entry: fixed part.
    gen_hit_base: Ms,
    /// Demarshal of a marshalled-form cache entry: per resource record.
    gen_hit_per_rr: Ms,
    /// Demarshalled-form cache hit: fixed part.
    demar_hit_base: Ms,
    /// Demarshalled-form cache hit: per resource record.
    demar_hit_per_rr: Ms,
    /// Hand-written (standard BIND library) marshalling: fixed part.
    fast_base: Ms,
    /// Hand-written marshalling: per resource record.
    fast_per_rr: Ms,
    /// Cost of determining that a cache reference is a miss ("about 0.1% of
    /// the total times").
    cache_probe: Ms,

    /// Per-meta-lookup overhead of the HRPC interface to BIND beyond
    /// RTT + service + marshalling (connection management, record parsing).
    /// Calibration residual; see module docs.
    bind_resolver_overhead: Ms,
    /// Marshalling of `FindNSM` arguments/results on a remote client→HNS hop.
    findnsm_arg_marshal: Ms,
    /// Marshalling of NSM arguments/results on a remote client→NSM hop.
    nsm_arg_marshal: Ms,
    /// Marshalling on a remote client→agent hop (agent forwards both
    /// interfaces; row 2 of Table 3.1).
    agent_arg_marshal: Ms,
    /// NSM-side assembly of the completed HRPC binding.
    nsm_assemble: Ms,
    /// HNS bookkeeping per meta mapping (hashing, context parsing).
    hns_bookkeeping: Ms,

    /// Fixed cost of a zone transfer used for cache preload.
    axfr_base: Ms,
    /// Zone-transfer cost per kilobyte of zone data.
    axfr_per_kb: Ms,

    /// Interim scheme: read + parse the replicated local binding file.
    interim_file_read: Ms,
    /// Interim scheme: fixed overhead besides file read and portmapper.
    interim_overhead: Ms,
    /// Reregistered-Clearinghouse scheme: assembly after the CH lookup.
    rereg_assemble: Ms,
    /// Reregistration process: cost to push one name into the global store.
    rereg_per_name: Ms,
}

impl CostModel {
    /// The calibration used throughout EXPERIMENTS.md, fitted to the
    /// paper's measured primitives (see module documentation).
    pub fn paper_calibrated() -> Self {
        CostModel {
            local_call: 0.02,
            rpc_rtt_sun: 33.0,
            rpc_rtt_courier: 38.0,
            rpc_rtt_raw_tcp: 22.0,
            rpc_rtt_raw_udp: 25.0,
            per_kb: 0.8,

            dns_udp_rtt: 18.0,
            bind_service: 8.0,
            portmap_service: 1.0,

            ch_auth: 48.0,
            ch_disk: 60.0,
            ch_service: 10.0,

            gen_miss_base: 17.81,
            gen_miss_per_rr: 2.42,
            gen_hit_base: 8.10,
            gen_hit_per_rr: 3.01,
            demar_hit_base: 0.75,
            demar_hit_per_rr: 0.08,
            fast_base: 0.26,
            fast_per_rr: 0.39,
            cache_probe: 0.05,

            bind_resolver_overhead: 15.5,
            findnsm_arg_marshal: 14.0,
            nsm_arg_marshal: 10.0,
            agent_arg_marshal: 18.0,
            nsm_assemble: 2.0,
            hns_bookkeeping: 0.5,

            axfr_base: 60.0,
            axfr_per_kb: 165.0,

            interim_file_read: 170.0,
            interim_overhead: 4.0,
            rereg_assemble: 10.0,
            rereg_per_name: 45.0,
        }
    }

    /// What `term` costs, in milliseconds: the one place a term is priced.
    /// A sum charged at once (`ChRead`, `ResolverQuery`, a batch's sets)
    /// is one arm, so the charge rounds it to the microsecond once.
    #[inline(always)]
    pub fn price(&self, term: Term<'_>) -> Ms {
        let rtt = |suite| match suite {
            RpcSuiteKind::Sun => self.rpc_rtt_sun,
            RpcSuiteKind::Courier => self.rpc_rtt_courier,
            RpcSuiteKind::RawTcp => self.rpc_rtt_raw_tcp,
            RpcSuiteKind::RawUdp => self.rpc_rtt_raw_udp,
            RpcSuiteKind::DnsUdp => self.dns_udp_rtt,
        };
        let wire = |bytes: usize| self.per_kb * bytes as f64 / 1024.0;
        let generated = |rrs: usize| self.gen_miss_base + self.gen_miss_per_rr * rrs.max(1) as f64;
        match term {
            Term::LocalCall => self.local_call,
            Term::RemoteRequest { suite, bytes } => rtt(suite) + wire(bytes),
            Term::ReplyBytes { bytes } => wire(bytes),
            Term::RetryBackoff { ms } | Term::LatencySpike { ms } => ms,
            Term::PortmapService => self.portmap_service,
            Term::ZoneTransfer { suite, bytes } => {
                let kb = bytes as f64 / 1024.0;
                (self.axfr_base + self.axfr_per_kb * kb - rtt(suite)).max(0.0)
            }
            Term::BindService => self.bind_service,
            Term::ChAuth => self.ch_auth,
            Term::ChRead => self.ch_disk + self.ch_service,
            Term::ChDiskReads { n } => self.ch_disk * n as f64,
            Term::CacheProbe => self.cache_probe,
            Term::CacheHit { form, rrs } => match form {
                CacheForm::Marshalled => self.gen_hit_base + self.gen_hit_per_rr * rrs as f64,
                CacheForm::Demarshalled => self.demar_hit_base + self.demar_hit_per_rr * rrs as f64,
            },
            Term::GeneratedMiss { rrs } => generated(rrs),
            Term::ResolverQuery { rrs } => generated(rrs) + self.bind_resolver_overhead,
            Term::ResolverBatch { sets } => {
                sets.fold(self.bind_resolver_overhead, |ms, rrs| ms + generated(rrs))
            }
            Term::FastMarshal { rrs } => self.fast_base + self.fast_per_rr * rrs.max(1) as f64,
            Term::HnsBookkeeping => self.hns_bookkeeping,
            Term::FindNsmArgMarshal => self.findnsm_arg_marshal,
            Term::NsmArgMarshal => self.nsm_arg_marshal,
            Term::AgentArgMarshal => self.agent_arg_marshal,
            Term::NsmAssemble => self.nsm_assemble,
            Term::BindingAssembly { rrs } => generated(rrs) + self.nsm_assemble,
            Term::InterimFileBind => self.interim_file_read + self.interim_overhead,
            Term::ReregAssemble => self.rereg_assemble,
            Term::ReregPerName => self.rereg_per_name,
        }
    }
}

impl Default for CostModel {
    fn default() -> Self {
        Self::paper_calibrated()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn price(term: Term<'_>) -> Ms {
        CostModel::paper_calibrated().price(term)
    }

    /// One native BIND lookup: a DNS round trip, the server's service and
    /// the standard routines' marshalling of `rrs` records.
    fn native_bind_lookup(rrs: usize) -> Ms {
        let suite = RpcSuiteKind::DnsUdp;
        price(Term::RemoteRequest { suite, bytes: 0 })
            + price(Term::BindService)
            + price(Term::FastMarshal { rrs })
    }

    /// One native Clearinghouse lookup: a Courier round trip, then the
    /// authenticated, disk-bound access.
    fn native_ch_lookup() -> Ms {
        let suite = RpcSuiteKind::Courier;
        price(Term::RemoteRequest { suite, bytes: 0 }) + price(Term::ChAuth) + price(Term::ChRead)
    }

    #[test]
    fn native_bind_lookup_matches_paper_27ms() {
        let got = native_bind_lookup(1);
        assert!(
            (got - 27.0).abs() < 0.7,
            "BIND lookup {got} ms, paper 27 ms"
        );
    }

    #[test]
    fn native_ch_lookup_matches_paper_156ms() {
        let got = native_ch_lookup();
        assert!(
            (got - 156.0).abs() < 0.5,
            "CH lookup {got} ms, paper 156 ms"
        );
    }

    #[test]
    fn table_3_2_marshalled_and_demarshalled_hits() {
        let hit = |form, rrs| price(Term::CacheHit { form, rrs });
        // Paper Table 3.2: miss 20.23/32.34, marshalled 11.11/26.17,
        // demarshalled 0.83/1.22 ms for 1/6 resource records.
        assert!((price(Term::GeneratedMiss { rrs: 1 }) - 20.23).abs() < 0.1);
        assert!((price(Term::GeneratedMiss { rrs: 6 }) - 32.34).abs() < 0.2);
        assert!((hit(CacheForm::Marshalled, 1) - 11.11).abs() < 0.1);
        assert!((hit(CacheForm::Marshalled, 6) - 26.17).abs() < 0.1);
        assert!((hit(CacheForm::Demarshalled, 1) - 0.83).abs() < 0.02);
        assert!((hit(CacheForm::Demarshalled, 6) - 1.22).abs() < 0.02);
    }

    #[test]
    fn standard_bind_routines_match_paper() {
        assert!((price(Term::FastMarshal { rrs: 1 }) - 0.65).abs() < 0.01);
        assert!((price(Term::FastMarshal { rrs: 6 }) - 2.6).abs() < 0.01);
    }

    /// A message marshals at least one record: an empty answer (a name
    /// with no records, a negative reply) costs what a one-record one does.
    #[test]
    fn an_empty_message_marshals_as_one_record() {
        for rrs in [0, 1] {
            let fast = price(Term::FastMarshal { rrs });
            assert_eq!(fast, price(Term::FastMarshal { rrs: 1 }), "{rrs} records");
            let generated = price(Term::GeneratedMiss { rrs });
            assert_eq!(
                generated,
                price(Term::GeneratedMiss { rrs: 1 }),
                "{rrs} records"
            );
        }
    }

    /// The preload: "about 2KB" of meta information transferred in
    /// "about 390 msec.", the call's round trip included.
    #[test]
    fn preload_cost_matches_paper_390ms() {
        let suite = RpcSuiteKind::RawTcp;
        let got = price(Term::RemoteRequest { suite, bytes: 0 })
            + price(Term::ZoneTransfer { suite, bytes: 2048 });
        assert!((got - 390.0).abs() < 1.0, "preload {got} ms, paper ~390 ms");
    }

    #[test]
    fn rpc_rtt_spread_matches_paper_22_38() {
        let rtt = |suite| price(Term::RemoteRequest { suite, bytes: 0 });
        let all = [
            RpcSuiteKind::Sun,
            RpcSuiteKind::Courier,
            RpcSuiteKind::RawTcp,
            RpcSuiteKind::RawUdp,
        ];
        for v in all.map(rtt) {
            assert!((22.0..=38.0).contains(&v), "suite rtt {v} outside 22-38 ms");
        }
        assert_eq!(rtt(RpcSuiteKind::Sun), 33.0);
    }

    /// A batch pays the interface's overhead once and each set's
    /// demarshalling: what one query per set would pay, less the
    /// overhead of every query but one.
    #[test]
    fn a_batch_pays_the_interface_overhead_once() {
        let sets = [1, 0, 6];
        let batch = price(Term::ResolverBatch {
            sets: &mut sets.into_iter(),
        });
        let queries: Ms = sets
            .map(|rrs| price(Term::ResolverQuery { rrs }))
            .iter()
            .sum();
        let overhead =
            price(Term::ResolverQuery { rrs: 1 }) - price(Term::GeneratedMiss { rrs: 1 });
        assert!(
            (queries - batch - 2.0 * overhead).abs() < 1e-9,
            "{batch} vs {queries}"
        );
    }
}
