//! Zone transfer (AXFR) and secondary servers.
//!
//! "The BIND zone transfer mechanism, used by BIND secondary servers to
//! request data transfers from primary servers, was employed to preload the
//! caches." Both uses exist here: [`transfer_zone`] is the raw client (the
//! HNS preload path), and [`Secondary`] is a secondary server that refreshes
//! itself when the primary's serial advances.
//!
//! The transfer procedures cross the fabric as their structs, as `QUERY`
//! does: a request is a plain record ([`ZoneRequest`], [`IxfrRequest`]),
//! a reply the [`ZoneTransfer`] or [`IncrementalTransfer`] the client
//! returns, its records written by hand as [`crate::message::Answer`]'s
//! are. `SERIAL` answers with the bare number.

use std::sync::Arc;

use simnet::costs::Term;
use simnet::topology::HostId;

use hrpc::error::{RpcError, RpcResult};
use hrpc::net::RpcNet;
use hrpc::server::ReplySlot;
use hrpc::HrpcBinding;
use wire::message::{Field, Shape, Shaped};
use wire::{Value, WireError, WireResult};

use crate::db::ZoneDb;
use crate::error::{NsError, NsResult};
use crate::message::{decoded, PROC_AXFR, PROC_IXFR, PROC_SERIAL};
use crate::name::DomainName;
use crate::rr::{bad_field, ResourceRecord};
use crate::server::BindServer;
use crate::zone::{RrBody, Zone};

/// An `AXFR` or `SERIAL` request: the zone asked about.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ZoneRequest {
    /// The zone's origin.
    pub origin: DomainName,
}

wire::record!(ZoneRequest { origin });

/// An `IXFR` request: the zone, and the serial of the copy the caller
/// holds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IxfrRequest {
    /// The zone's origin.
    pub origin: DomainName,
    /// The serial the caller's copy was taken at.
    pub from_serial: u32,
}

wire::record!(IxfrRequest {
    origin,
    from_serial
});

/// The result of a zone transfer: the `AXFR` reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ZoneTransfer {
    /// Zone serial at transfer time.
    pub serial: u32,
    /// Zone size in bytes (drives the calibrated transfer cost).
    pub size_bytes: usize,
    /// Every record in the zone.
    pub records: Vec<ResourceRecord>,
}

impl ZoneTransfer {
    /// Decodes an untyped server's tree.
    pub fn from_value(v: &Value) -> NsResult<ZoneTransfer> {
        Ok(ZoneTransfer {
            serial: v.u32_field("serial").map_err(bad_field)?,
            size_bytes: v.u32_field("size_bytes").map_err(bad_field)? as usize,
            records: records_of(v)?,
        })
    }
}

impl Shaped for ZoneTransfer {
    fn shape<S: Shape>(&self, s: &S) -> S::Out {
        s.record([
            ("serial", s.u32(self.serial)),
            ("size_bytes", s.u32(self.size_bytes as u32)),
            ("records", s.list(self.records.iter(), |r| r.shape(s))),
        ])
    }
}

/// What an incremental transfer shipped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IxfrMode {
    /// The client's serial is current; nothing shipped.
    Unchanged,
    /// Only names changed since the client's serial: their current
    /// record sets, plus the changed names whose records were all
    /// removed.
    Incremental,
    /// The delta log was truncated past the client's serial; the whole
    /// zone rode back (exactly an AXFR).
    Full,
}

impl IxfrMode {
    /// The mode's name, as it crosses the fabric.
    pub fn as_str(self) -> &'static str {
        match self {
            IxfrMode::Unchanged => "unchanged",
            IxfrMode::Incremental => "incremental",
            IxfrMode::Full => "full",
        }
    }
}

/// Crosses the fabric as its name; any other text is refused.
impl Field for IxfrMode {
    fn shape<S: Shape>(&self, s: &S) -> S::Out {
        s.str(self.as_str())
    }

    fn read(v: &Value) -> WireResult<IxfrMode> {
        match v.as_str()? {
            "unchanged" => Ok(IxfrMode::Unchanged),
            "incremental" => Ok(IxfrMode::Incremental),
            "full" => Ok(IxfrMode::Full),
            other => Err(WireError::Refused(format!("unknown IXFR mode `{other}`"))),
        }
    }
}

/// The result of an incremental ([`PROC_IXFR`]) zone transfer: the
/// `IXFR` reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IncrementalTransfer {
    /// Zone serial at transfer time.
    pub serial: u32,
    /// What rode back.
    pub mode: IxfrMode,
    /// Bytes actually shipped (drives the calibrated transfer cost);
    /// zero when unchanged, the full zone size on fallback.
    pub size_bytes: usize,
    /// The current records of every changed name that still exists
    /// (flat, grouped by the caller), or on fallback every record in the
    /// zone.
    pub records: Vec<ResourceRecord>,
    /// Changed names with no remaining records.
    pub removed: Vec<DomainName>,
}

impl IncrementalTransfer {
    /// Decodes an untyped server's tree.
    pub fn from_value(v: &Value) -> NsResult<IncrementalTransfer> {
        let read = |name| v.field(name).map_err(bad_field);
        Ok(IncrementalTransfer {
            serial: v.u32_field("serial").map_err(bad_field)?,
            mode: IxfrMode::read(read("mode")?).map_err(bad_field)?,
            size_bytes: v.u32_field("size_bytes").map_err(bad_field)? as usize,
            records: records_of(v)?,
            removed: Field::read(read("removed")?).map_err(bad_field)?,
        })
    }
}

impl Shaped for IncrementalTransfer {
    fn shape<S: Shape>(&self, s: &S) -> S::Out {
        s.record([
            ("serial", s.u32(self.serial)),
            ("mode", self.mode.shape(s)),
            ("size_bytes", s.u32(self.size_bytes as u32)),
            ("records", s.list(self.records.iter(), |r| r.shape(s))),
            ("removed", self.removed.shape(s)),
        ])
    }
}

/// The `records` of a transfer reply's tree.
fn records_of(v: &Value) -> NsResult<Vec<ResourceRecord>> {
    let list = v.field("records").and_then(Value::as_list);
    ResourceRecord::list_from_values(list.map_err(bad_field)?)
}

/// Charges a transfer that shipped `size_bytes` the calibrated
/// per-kilobyte cost, minus the round trip the fabric already charged.
fn charge_transfer(net: &RpcNet, binding: &HrpcBinding, size_bytes: usize) {
    net.world().charge(Term::ZoneTransfer {
        suite: binding.components.suite_kind(),
        bytes: size_bytes,
    });
}

/// Transfers `origin` from the server behind `binding`, charging the
/// calibrated per-kilobyte transfer cost.
pub fn transfer_zone(
    net: &RpcNet,
    caller: HostId,
    binding: &HrpcBinding,
    origin: &DomainName,
) -> RpcResult<ZoneTransfer> {
    let request = ZoneRequest {
        origin: origin.clone(),
    };
    let decode = decoded(ZoneTransfer::from_value);
    let xfer = net.call_msg(caller, binding, PROC_AXFR, &request, decode)?;
    charge_transfer(net, binding, xfer.size_bytes);
    Ok(xfer)
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
    let request = IxfrRequest {
        origin: origin.clone(),
        from_serial,
    };
    let decode = decoded(IncrementalTransfer::from_value);
    let xfer = net.call_msg(caller, binding, PROC_IXFR, &request, decode)?;
    charge_transfer(net, binding, xfer.size_bytes);
    Ok(xfer)
}

/// Reads the primary's current serial for `origin`.
pub fn read_serial(
    net: &RpcNet,
    caller: HostId,
    binding: &HrpcBinding,
    origin: &DomainName,
) -> RpcResult<u32> {
    let request = ZoneRequest {
        origin: origin.clone(),
    };
    let call =
        |reply: &mut ReplySlot<'_>| net.call_into(caller, binding, PROC_SERIAL, &request, reply);
    Ok(ReplySlot::tree(call)?.as_u32()?)
}

/// A secondary server: holds a copy of one zone and refreshes it from the
/// primary when the serial advances.
pub struct Secondary {
    net: Arc<RpcNet>,
    host: HostId,
    primary: HrpcBinding,
    origin: DomainName,
    default_ttl: u32,
    server: Arc<BindServer>,
}

/// The database a secondary serves a transferred copy of `origin` from:
/// each record's name stripped to the text the zone keeps, as
/// [`Zone::add`] strips it, and the records loaded at the serial the
/// primary sent them at, so a client of the secondary holds the
/// primary's serial.
fn served(origin: &DomainName, default_ttl: u32, xfer: &ZoneTransfer) -> RpcResult<ZoneDb> {
    let refused = |e: NsError| RpcError::Service(e.to_string());
    let stripped = xfer
        .records
        .iter()
        .map(|rr| match rr.name.below(origin) {
            Some(owner) => Ok((owner, RrBody::of(rr))),
            None => Err(NsError::NotAuthoritative(rr.name.to_string())),
        })
        .collect::<NsResult<Vec<_>>>()
        .map_err(refused)?;
    let zone = Zone::load(origin.clone(), default_ttl, stripped).map_err(refused)?;
    let mut db = ZoneDb::new();
    db.add_zone(zone.loaded_at(xfer.serial));
    Ok(db)
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
        let db = served(&origin, default_ttl, &xfer)?;
        let server = BindServer::conventional(format!("secondary-{origin}"), db);
        Ok(Secondary {
            net,
            host,
            primary,
            origin,
            default_ttl,
            server,
        })
    }

    /// The secondary's serving object (export it to answer queries).
    pub fn server(&self) -> &Arc<BindServer> {
        &self.server
    }

    /// Serial of the copy currently served: the primary's when it was
    /// transferred.
    pub fn current_serial(&self) -> u32 {
        let origin = &self.origin;
        self.server
            .with_db(|db| db.zone(origin).map_or(0, Zone::serial))
    }

    /// Checks the primary's serial; re-transfers if it advanced. Returns
    /// true if a transfer happened.
    pub fn refresh(&self) -> RpcResult<bool> {
        let primary_serial = read_serial(&self.net, self.host, &self.primary, &self.origin)?;
        if primary_serial == self.current_serial() {
            return Ok(false);
        }
        let xfer = transfer_zone(&self.net, self.host, &self.primary, &self.origin)?;
        let fresh = served(&self.origin, self.default_ttl, &xfer)?;
        self.server.with_db(|db| *db = fresh);
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
        let (xfer, ledger) =
            world.measure(|| transfer_zone(&net, client, &dep.hrpc_binding, &name("hns")));
        let took = ledger.total();
        let xfer = xfer.expect("axfr");
        let suite = dep.hrpc_binding.components.suite_kind();
        let bytes = xfer.size_bytes;
        let expected = world.price(Term::RemoteRequest { suite, bytes: 0 })
            + world.price(Term::ZoneTransfer { suite, bytes })
            + world.price(Term::BindService);
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

    /// A refresh once rebuilt the served zone with a default TTL of 3600,
    /// whatever the secondary was bootstrapped with.
    #[test]
    fn a_refreshed_secondary_keeps_its_default_ttl() {
        let (_world, net, client, dep) = setup();
        let secondary =
            Secondary::bootstrap(Arc::clone(&net), client, dep.hrpc_binding, name("hns"), 600)
                .expect("bootstrap");
        let updater =
            crate::resolver::HrpcResolver::new(Arc::clone(&net), client, dep.hrpc_binding);
        updater
            .update(&UpdateOp::Add(ResourceRecord::txt(
                name("new.hns"),
                600,
                "x",
            )))
            .expect("update");
        assert!(secondary.refresh().expect("refresh"), "serial advanced");
        let ttl = secondary
            .server()
            .with_db(|db| db.zone(&name("hns")).map(Zone::default_ttl));
        assert_eq!(ttl, Some(600));
    }

    /// A refresh serves its transfer as `Zone::load` stands it up, at the
    /// serial the primary sent: the server taking the zone trims nothing
    /// more, so the copy holds the bytes of a zone loaded from the same
    /// records, one name holding two of them.
    #[test]
    fn a_refreshed_secondary_holds_its_transfer_as_loaded() {
        let (_world, net, client, dep) = setup();
        let secondary =
            Secondary::bootstrap(Arc::clone(&net), client, dep.hrpc_binding, name("hns"), 600)
                .expect("bootstrap");
        let updater =
            crate::resolver::HrpcResolver::new(Arc::clone(&net), client, dep.hrpc_binding);
        updater
            .update(&UpdateOp::Add(ResourceRecord::txt(
                name("e3.hns"),
                600,
                "second",
            )))
            .expect("update");
        assert!(secondary.refresh().expect("refresh"), "serial advanced");
        let xfer = transfer_zone(&net, client, &dep.hrpc_binding, &name("hns")).expect("axfr");
        let stripped = xfer.records.iter().map(|rr| {
            let owner = rr.name.below(&name("hns")).expect("in the zone");
            (owner, RrBody::of(rr))
        });
        let loaded = Zone::load(name("hns"), 600, stripped).expect("load");
        let served = secondary.server().with_db(|db| {
            db.zone(&name("hns"))
                .map(|z| (z.resident_bytes(), z.all_records(), z.serial()))
        });
        let expected = (loaded.resident_bytes(), loaded.all_records(), xfer.serial);
        assert_eq!(served, Some(expected));
        assert_eq!(loaded.record_count(), 9);
    }

    /// A secondary once served each copy at a serial of its own, one past
    /// the copy's record count: a replace on the primary keeps the count,
    /// so a client of the secondary was told its stale copy was current.
    #[test]
    fn a_client_of_a_refreshed_secondary_sees_a_replace_on_the_primary() {
        let (world, net, client, dep) = setup();
        let secondary =
            Secondary::bootstrap(Arc::clone(&net), client, dep.hrpc_binding, name("hns"), 600)
                .expect("bootstrap");
        let copy = deploy(
            &net,
            world.add_host("secondary"),
            Arc::clone(secondary.server()),
        );
        let held = transfer_zone(&net, client, &copy.hrpc_binding, &name("hns")).expect("axfr");
        let fresh = ResourceRecord::txt(name("e3.hns"), 600, "replaced");
        let updater =
            crate::resolver::HrpcResolver::new(Arc::clone(&net), client, dep.hrpc_binding);
        updater
            .update(&UpdateOp::Replace {
                name: name("e3.hns"),
                rtype: RType::Txt,
                records: vec![fresh.clone()],
            })
            .expect("replace");
        assert!(secondary.refresh().expect("refresh"), "serial advanced");
        let asked =
            transfer_zone_incremental(&net, client, &copy.hrpc_binding, &name("hns"), held.serial)
                .expect("ixfr");
        assert_ne!(asked.mode, IxfrMode::Unchanged);
        assert!(asked.records.contains(&fresh), "{:?}", asked.records);
        assert_eq!(asked.serial, secondary.current_serial());
    }

    #[test]
    fn incremental_transfer_ships_only_changes() {
        let (_world, net, client, dep) = setup();
        let full = transfer_zone(&net, client, &dep.hrpc_binding, &name("hns")).expect("axfr");

        // Current client: nothing ships.
        let up_to_date =
            transfer_zone_incremental(&net, client, &dep.hrpc_binding, &name("hns"), full.serial)
                .expect("ixfr");
        assert_eq!(up_to_date.mode, IxfrMode::Unchanged);
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
        assert_eq!(delta.mode, IxfrMode::Incremental);
        assert!(delta.records.iter().all(|r| r.name == name("e0.hns")));
        assert_eq!(
            delta.records.len(),
            2,
            "the changed name's full current set"
        );
        assert!(delta.removed.is_empty());
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
        assert_eq!(delta2.mode, IxfrMode::Incremental);
        assert_eq!(delta2.removed, vec![name("e1.hns")]);
    }

    #[test]
    fn incremental_transfer_cost_tracks_shipped_bytes() {
        let (world, net, client, dep) = setup();
        let full = transfer_zone(&net, client, &dep.hrpc_binding, &name("hns")).expect("axfr");
        let (_, ledger) = world.measure(|| {
            transfer_zone_incremental(&net, client, &dep.hrpc_binding, &name("hns"), full.serial)
                .expect("ixfr")
        });
        let took_unchanged = ledger.total();
        let (full2, ledger) = world.measure(|| {
            transfer_zone(&net, client, &dep.hrpc_binding, &name("hns")).expect("axfr")
        });
        let took_full = ledger.total();
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
        assert_eq!(xfer.mode, IxfrMode::Full);
        assert_eq!(xfer.records.len(), 8);
        assert!(xfer.size_bytes > 0);
    }

    #[test]
    fn transfer_of_missing_zone_fails() {
        let (_world, net, client, dep) = setup();
        assert!(transfer_zone(&net, client, &dep.hrpc_binding, &name("absent")).is_err());
    }
}
