//! Zone transfer (AXFR) and secondary servers.
//!
//! "The BIND zone transfer mechanism, used by BIND secondary servers to
//! request data transfers from primary servers, was employed to preload the
//! caches." Both uses exist here: [`transfer_zone`] is the raw client (the
//! HNS preload path), and [`Secondary`] is a secondary server that refreshes
//! itself when the primary's serial advances.

use std::sync::Arc;

use simnet::topology::HostId;

use hrpc::error::{RpcError, RpcResult};
use hrpc::net::RpcNet;
use hrpc::HrpcBinding;
use wire::Value;

use crate::message::{PROC_AXFR, PROC_IXFR, PROC_SERIAL};
use crate::name::DomainName;
use crate::rr::ResourceRecord;
use crate::server::BindServer;
use crate::zone::Zone;

/// The result of a zone transfer.
#[derive(Debug, Clone)]
pub struct ZoneTransfer {
    /// Zone serial at transfer time.
    pub serial: u32,
    /// Zone size in bytes (drives the calibrated transfer cost).
    pub size_bytes: usize,
    /// Every record in the zone.
    pub records: Vec<ResourceRecord>,
}

/// Transfers `origin` from the server behind `binding`, charging the
/// calibrated per-kilobyte transfer cost.
pub fn transfer_zone(
    net: &RpcNet,
    caller: HostId,
    binding: &HrpcBinding,
    origin: &DomainName,
) -> RpcResult<ZoneTransfer> {
    let args = Value::record([("origin", Value::str(origin.as_str()))]);
    let reply = net.call(caller, binding, PROC_AXFR, &args)?;
    let serial = reply.u32_field("serial")?;
    let size_bytes = reply.u32_field("size_bytes")? as usize;
    let list = reply.field("records").and_then(Value::as_list)?;
    let records =
        ResourceRecord::list_from_values(list).map_err(|e| RpcError::Service(e.to_string()))?;
    // The transfer itself: charged by size, minus the single round trip the
    // fabric already charged.
    let world = net.world();
    let kb = size_bytes as f64 / 1024.0;
    let rtt = world.costs.rpc_rtt(binding.components.suite_kind());
    world.charge_ms((world.costs.axfr(kb) - rtt).max(0.0));
    Ok(ZoneTransfer {
        serial,
        size_bytes,
        records,
    })
}

/// What an incremental transfer shipped.
#[derive(Debug, Clone)]
pub enum IxfrContents {
    /// The client's serial is current; nothing shipped.
    Unchanged,
    /// Only names changed since the client's serial: their current
    /// record sets (flat, grouped by the caller) plus names whose
    /// records were removed entirely.
    Incremental {
        /// Current records of every changed name that still exists.
        records: Vec<ResourceRecord>,
        /// Changed names with no remaining records.
        removed: Vec<DomainName>,
    },
    /// The delta log was truncated past the client's serial; the whole
    /// zone rode back (exactly an AXFR).
    Full {
        /// Every record in the zone.
        records: Vec<ResourceRecord>,
    },
}

/// The result of an incremental ([`PROC_IXFR`]) zone transfer.
#[derive(Debug, Clone)]
pub struct IncrementalTransfer {
    /// Zone serial at transfer time.
    pub serial: u32,
    /// Bytes actually shipped (drives the calibrated transfer cost);
    /// zero when unchanged, the full zone size on fallback.
    pub size_bytes: usize,
    /// What rode back.
    pub contents: IxfrContents,
}

/// Transfers the changes to `origin` since `from_serial` from the server
/// behind `binding`, charging the calibrated per-kilobyte cost for only
/// the bytes shipped. Falls back to a full transfer server-side when the
/// delta log no longer covers `from_serial`.
pub fn transfer_zone_incremental(
    net: &RpcNet,
    caller: HostId,
    binding: &HrpcBinding,
    origin: &DomainName,
    from_serial: u32,
) -> RpcResult<IncrementalTransfer> {
    let args = Value::record([
        ("origin", Value::str(origin.as_str())),
        ("from_serial", Value::U32(from_serial)),
    ]);
    let reply = net.call(caller, binding, PROC_IXFR, &args)?;
    let serial = reply.u32_field("serial")?;
    let mode = reply.str_field("mode")?;
    let size_bytes = reply.u32_field("size_bytes")? as usize;
    let list = reply.field("records").and_then(Value::as_list)?;
    let records =
        ResourceRecord::list_from_values(list).map_err(|e| RpcError::Service(e.to_string()))?;
    let removed: Result<Vec<DomainName>, _> = reply
        .field("removed")
        .and_then(Value::as_list)?
        .iter()
        .map(|v| {
            v.as_str()
                .map_err(RpcError::from)
                .and_then(|s| DomainName::parse(s).map_err(|e| RpcError::Service(e.to_string())))
        })
        .collect();
    let contents = match mode {
        "unchanged" => IxfrContents::Unchanged,
        "incremental" => IxfrContents::Incremental {
            records,
            removed: removed?,
        },
        "full" => IxfrContents::Full { records },
        other => return Err(RpcError::Service(format!("unknown IXFR mode `{other}`"))),
    };
    // Charge for shipped bytes, minus the round trip the fabric already
    // charged (same accounting as the full transfer).
    let world = net.world();
    let kb = size_bytes as f64 / 1024.0;
    let rtt = world.costs.rpc_rtt(binding.components.suite_kind());
    world.charge_ms((world.costs.axfr(kb) - rtt).max(0.0));
    Ok(IncrementalTransfer {
        serial,
        size_bytes,
        contents,
    })
}

/// Reads the primary's current serial for `origin`.
pub fn read_serial(
    net: &RpcNet,
    caller: HostId,
    binding: &HrpcBinding,
    origin: &DomainName,
) -> RpcResult<u32> {
    let args = Value::record([("origin", Value::str(origin.as_str()))]);
    Ok(net.call(caller, binding, PROC_SERIAL, &args)?.as_u32()?)
}

/// A secondary server: holds a copy of one zone and refreshes it from the
/// primary when the serial advances.
pub struct Secondary {
    net: Arc<RpcNet>,
    host: HostId,
    primary: HrpcBinding,
    origin: DomainName,
    server: Arc<BindServer>,
    last_serial: parking_lot::Mutex<u32>,
}

impl Secondary {
    /// Creates a secondary for `origin`, performing the initial transfer.
    pub fn bootstrap(
        net: Arc<RpcNet>,
        host: HostId,
        primary: HrpcBinding,
        origin: DomainName,
        default_ttl: u32,
    ) -> RpcResult<Secondary> {
        let xfer = transfer_zone(&net, host, &primary, &origin)?;
        let mut zone = Zone::new(origin.clone(), default_ttl);
        for rr in &xfer.records {
            zone.add(rr.clone())
                .map_err(|e| RpcError::Service(e.to_string()))?;
        }
        let mut db = crate::db::ZoneDb::new();
        db.add_zone(zone);
        let server = crate::server::BindServer::conventional(format!("secondary-{origin}"), db);
        Ok(Secondary {
            net,
            host,
            primary,
            origin,
            server,
            last_serial: parking_lot::Mutex::new(xfer.serial),
        })
    }

    /// The secondary's serving object (export it to answer queries).
    pub fn server(&self) -> &Arc<BindServer> {
        &self.server
    }

    /// Serial of the copy currently served.
    pub fn current_serial(&self) -> u32 {
        *self.last_serial.lock()
    }

    /// Checks the primary's serial; re-transfers if it advanced. Returns
    /// true if a transfer happened.
    pub fn refresh(&self) -> RpcResult<bool> {
        let primary_serial = read_serial(&self.net, self.host, &self.primary, &self.origin)?;
        if primary_serial == self.current_serial() {
            return Ok(false);
        }
        let xfer = transfer_zone(&self.net, self.host, &self.primary, &self.origin)?;
        let mut zone = Zone::new(self.origin.clone(), 3600);
        for rr in &xfer.records {
            zone.add(rr.clone())
                .map_err(|e| RpcError::Service(e.to_string()))?;
        }
        self.server.with_db(|db| {
            // Swap in the fresh copy.
            *db = crate::db::ZoneDb::new();
            db.add_zone(zone);
        });
        *self.last_serial.lock() = xfer.serial;
        Ok(true)
    }
}

impl std::fmt::Debug for Secondary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Secondary")
            .field("origin", &self.origin.as_str())
            .field("serial", &self.current_serial())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rr::RType;
    use crate::server::{deploy, single_zone_server};
    use crate::update::UpdateOp;
    use simnet::world::World;

    fn name(s: &str) -> DomainName {
        DomainName::parse(s).expect("valid name")
    }

    fn setup() -> (
        Arc<World>,
        Arc<RpcNet>,
        HostId,
        crate::server::BindDeployment,
    ) {
        let world = World::paper();
        let client = world.add_host("client");
        let ns_host = world.add_host("primary");
        let net = RpcNet::new(Arc::clone(&world));
        let mut zone = Zone::new(name("hns"), 600);
        for i in 0..8 {
            zone.add(ResourceRecord::txt(
                name(&format!("e{i}.hns")),
                600,
                format!("entry {i}"),
            ))
            .expect("add");
        }
        let dep = deploy(&net, ns_host, single_zone_server("meta-bind", zone, true));
        (world, net, client, dep)
    }

    #[test]
    fn transfer_returns_all_records() {
        let (_world, net, client, dep) = setup();
        let xfer = transfer_zone(&net, client, &dep.hrpc_binding, &name("hns")).expect("axfr");
        assert_eq!(xfer.records.len(), 8);
        assert!(xfer.size_bytes > 0);
    }

    #[test]
    fn transfer_cost_tracks_zone_size() {
        // ~2 KB of meta information must cost ~390 ms, the paper's preload
        // figure. Our fixture is smaller; verify the formula is applied.
        let (world, net, client, dep) = setup();
        let (xfer, took, _) =
            world.measure(|| transfer_zone(&net, client, &dep.hrpc_binding, &name("hns")));
        let xfer = xfer.expect("axfr");
        let expected = world.costs.axfr(xfer.size_bytes as f64 / 1024.0) + world.costs.bind_service;
        assert!(
            (took.as_ms_f64() - expected).abs() < 2.0,
            "took {took}, expected ~{expected}"
        );
    }

    #[test]
    fn secondary_bootstraps_and_serves() {
        let (_world, net, client, dep) = setup();
        let secondary =
            Secondary::bootstrap(Arc::clone(&net), client, dep.hrpc_binding, name("hns"), 600)
                .expect("bootstrap");
        let found = secondary
            .server()
            .lookup_direct(&name("e3.hns"), RType::Txt)
            .expect("lookup");
        assert_eq!(found.len(), 1);
    }

    #[test]
    fn secondary_refresh_detects_serial_change() {
        let (_world, net, client, dep) = setup();
        let secondary =
            Secondary::bootstrap(Arc::clone(&net), client, dep.hrpc_binding, name("hns"), 600)
                .expect("bootstrap");
        assert!(
            !secondary.refresh().expect("no-op refresh"),
            "serial unchanged"
        );

        // Update the primary through the wire.
        let updater =
            crate::resolver::HrpcResolver::new(Arc::clone(&net), client, dep.hrpc_binding);
        updater
            .update(&UpdateOp::Add(ResourceRecord::txt(
                name("new.hns"),
                600,
                "fresh",
            )))
            .expect("update");

        assert!(secondary.refresh().expect("refresh"), "serial advanced");
        let found = secondary
            .server()
            .lookup_direct(&name("new.hns"), RType::Txt)
            .expect("lookup");
        assert_eq!(found.len(), 1);
    }

    #[test]
    fn incremental_transfer_ships_only_changes() {
        let (_world, net, client, dep) = setup();
        let full = transfer_zone(&net, client, &dep.hrpc_binding, &name("hns")).expect("axfr");

        // Current client: nothing ships.
        let up_to_date =
            transfer_zone_incremental(&net, client, &dep.hrpc_binding, &name("hns"), full.serial)
                .expect("ixfr");
        assert!(matches!(up_to_date.contents, IxfrContents::Unchanged));
        assert_eq!(up_to_date.size_bytes, 0);

        // One update: only the changed name's set ships, far below full.
        let updater =
            crate::resolver::HrpcResolver::new(Arc::clone(&net), client, dep.hrpc_binding);
        updater
            .update(&UpdateOp::Add(ResourceRecord::txt(
                name("e0.hns"),
                600,
                "entry 0 v2",
            )))
            .expect("update");
        let delta =
            transfer_zone_incremental(&net, client, &dep.hrpc_binding, &name("hns"), full.serial)
                .expect("ixfr");
        match &delta.contents {
            IxfrContents::Incremental { records, removed } => {
                assert!(records.iter().all(|r| r.name == name("e0.hns")));
                assert_eq!(records.len(), 2, "the changed name's full current set");
                assert!(removed.is_empty());
            }
            other => panic!("expected incremental, got {other:?}"),
        }
        assert!(
            delta.size_bytes < full.size_bytes,
            "delta {} must undercut full {}",
            delta.size_bytes,
            full.size_bytes
        );

        // Removal of a whole name is reported by name.
        updater
            .update(&UpdateOp::Delete {
                name: name("e1.hns"),
                rtype: RType::Txt,
            })
            .expect("remove");
        let delta2 =
            transfer_zone_incremental(&net, client, &dep.hrpc_binding, &name("hns"), delta.serial)
                .expect("ixfr");
        match &delta2.contents {
            IxfrContents::Incremental { removed, .. } => {
                assert_eq!(removed, &vec![name("e1.hns")]);
            }
            other => panic!("expected incremental, got {other:?}"),
        }
    }

    #[test]
    fn incremental_transfer_cost_tracks_shipped_bytes() {
        let (world, net, client, dep) = setup();
        let full = transfer_zone(&net, client, &dep.hrpc_binding, &name("hns")).expect("axfr");
        let (_, took_unchanged, _) = world.measure(|| {
            transfer_zone_incremental(&net, client, &dep.hrpc_binding, &name("hns"), full.serial)
                .expect("ixfr")
        });
        let (full2, took_full, _) = world.measure(|| {
            transfer_zone(&net, client, &dep.hrpc_binding, &name("hns")).expect("axfr")
        });
        assert!(full2.size_bytes > 0);
        assert!(
            took_unchanged.as_ms_f64() < took_full.as_ms_f64(),
            "an empty delta ({took_unchanged}) must cost less than a full transfer ({took_full})"
        );
    }

    #[test]
    fn truncated_log_falls_back_to_full_transfer() {
        let (_world, net, client, dep) = setup();
        // Serial 0 predates the zone's construction serial, so the log
        // cannot serve it.
        let xfer = transfer_zone_incremental(&net, client, &dep.hrpc_binding, &name("hns"), 0)
            .expect("ixfr");
        match &xfer.contents {
            IxfrContents::Full { records } => assert_eq!(records.len(), 8),
            other => panic!("expected full fallback, got {other:?}"),
        }
        assert!(xfer.size_bytes > 0);
    }

    #[test]
    fn transfer_of_missing_zone_fails() {
        let (_world, net, client, dep) = setup();
        assert!(transfer_zone(&net, client, &dep.hrpc_binding, &name("absent")).is_err());
    }
}
