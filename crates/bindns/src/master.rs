//! A minimal master-file format for zone fixtures.
//!
//! One record per line: `name ttl TYPE rdata...`. Comments start with `;`.
//! Supported types: `A <host-id>`, `TXT <text...>`, `CNAME <target>`,
//! `NS <target>`, `MX <target>`, `HINFO <text...>`, `UNSPEC <hex>`.

use simnet::topology::{HostId, NetAddr};

use crate::error::{NsError, NsResult};
use crate::name::DomainName;
use crate::rr::{RData, RType, ResourceRecord};
use crate::zone::Zone;

/// Parses master-file text into a zone rooted at `origin`.
pub fn parse_zone(origin: &str, default_ttl: u32, text: &str) -> NsResult<Zone> {
    let mut zone = Zone::new(DomainName::parse(origin)?, default_ttl);
    for (lineno, raw_line) in text.lines().enumerate() {
        let line = raw_line.split(';').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let rr = parse_record(line)
            .map_err(|e| NsError::BadRecord(format!("line {}: {e}", lineno + 1)))?;
        zone.add(rr)?;
    }
    Ok(zone)
}

/// Parses one record line.
pub fn parse_record(line: &str) -> NsResult<ResourceRecord> {
    let mut parts = line.split_whitespace();
    let name = DomainName::parse(
        parts
            .next()
            .ok_or_else(|| NsError::BadRecord("missing name".into()))?,
    )?;
    let ttl: u32 = parts
        .next()
        .ok_or_else(|| NsError::BadRecord("missing ttl".into()))?
        .parse()
        .map_err(|_| NsError::BadRecord("bad ttl".into()))?;
    let type_token = parts
        .next()
        .ok_or_else(|| NsError::BadRecord("missing type".into()))?;
    let rest: Vec<&str> = parts.collect();
    let first = || -> NsResult<&str> {
        rest.first()
            .copied()
            .ok_or_else(|| NsError::BadRecord("missing rdata".into()))
    };
    let (rtype, rdata) = match type_token {
        "A" => {
            let id: u32 = first()?
                .parse()
                .map_err(|_| NsError::BadRecord("bad host id".into()))?;
            (RType::A, RData::Addr(NetAddr::of(HostId(id))))
        }
        "TXT" => (RType::Txt, RData::Text(rest.join(" "))),
        "HINFO" => (RType::Hinfo, RData::Text(rest.join(" "))),
        "CNAME" => (RType::Cname, RData::Domain(DomainName::parse(first()?)?)),
        "NS" => (RType::Ns, RData::Domain(DomainName::parse(first()?)?)),
        "MX" => (RType::Mx, RData::Domain(DomainName::parse(first()?)?)),
        "UNSPEC" => {
            let hex = first()?;
            let bytes = decode_hex(hex)?;
            (RType::Unspec, RData::Opaque(bytes.into()))
        }
        other => return Err(NsError::BadRecord(format!("unknown type `{other}`"))),
    };
    Ok(ResourceRecord {
        name,
        rtype,
        ttl,
        rdata,
    })
}

fn decode_hex(s: &str) -> NsResult<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return Err(NsError::BadRecord("odd hex length".into()));
    }
    (0..s.len())
        .step_by(2)
        .map(|i| {
            u8::from_str_radix(&s[i..i + 2], 16).map_err(|_| NsError::BadRecord("bad hex".into()))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIXTURE: &str = "\
; the cs.washington.edu zone
fiji.cs.washington.edu   86400 A 3
june.cs.washington.edu   86400 A 4
www.cs.washington.edu    3600  CNAME fiji.cs.washington.edu
fiji.cs.washington.edu   86400 HINFO MicroVAX-II Unix
mail.cs.washington.edu   3600  MX june.cs.washington.edu
meta.cs.washington.edu   600   UNSPEC deadbeef
";

    #[test]
    fn parses_full_fixture() {
        let zone = parse_zone("cs.washington.edu", 3600, FIXTURE).expect("parse");
        assert_eq!(zone.record_count(), 6);
        let n = DomainName::parse("fiji.cs.washington.edu").expect("name");
        assert_eq!(zone.lookup(&n, RType::A).expect("lookup").len(), 1);
        let u = DomainName::parse("meta.cs.washington.edu").expect("name");
        let found = zone.lookup(&u, RType::Unspec).expect("lookup");
        assert_eq!(
            found[0].rdata,
            RData::Opaque(vec![0xDE, 0xAD, 0xBE, 0xEF].into())
        );
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let zone = parse_zone("z", 60, "; nothing\n\n  \n").expect("parse");
        assert_eq!(zone.record_count(), 0);
    }

    #[test]
    fn txt_preserves_spaces() {
        let rr = parse_record("a.z 60 TXT hello brave world").expect("parse");
        assert_eq!(rr.rdata, RData::Text("hello brave world".into()));
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = parse_zone("z", 60, "a.z 60 A 1\nbroken line\n").unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
    }

    #[test]
    fn rejects_bad_pieces() {
        assert!(parse_record("a.z sixty A 1").is_err());
        assert!(parse_record("a.z 60 BOGUS x").is_err());
        assert!(parse_record("a.z 60 A notanumber").is_err());
        assert!(parse_record("a.z 60 UNSPEC abc").is_err()); // odd hex
        assert!(parse_record("a.z 60 UNSPEC zz").is_err()); // bad hex
        assert!(parse_record("a.z 60").is_err());
        assert!(parse_record("").is_err());
    }

    #[test]
    fn out_of_zone_record_rejected() {
        let err = parse_zone("cs.washington.edu", 60, "a.mit.edu 60 A 1\n").unwrap_err();
        assert!(matches!(err, NsError::NotAuthoritative(_)));
    }
}
