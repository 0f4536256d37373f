//! Byte serialization of the DLFM API for the socket transport.
//!
//! Hand-rolled tag-byte encoding of [`DlfmRequest`] and [`DlfmResponse`]
//! over the `dlrpc::wire` primitive codec. Every enum variant gets a fixed
//! tag byte followed by its fields in declaration order; unknown tags
//! decode to [`WireError::Decode`] so a version skew fails one call
//! cleanly instead of desynchronizing the stream (the frame layer keeps
//! the stream framed regardless).

use dlrpc::wire::{put_bool, put_i64, put_str, put_u32, put_u8};
use dlrpc::{Reader, Wire, WireError};

use crate::api::{
    AccessControl, DbErrorKind, DlfmError, DlfmRequest, DlfmResponse, GroupSpec, LinkRow,
    LinkStatus, TelemetryKind, MAX_BATCH_OPS,
};

/// Tag of `DlfmRequest::Batch`.
const REQ_BATCH: u8 = 21;
/// Tag of `DlfmResponse::Batch`.
const RESP_BATCH: u8 = 10;

fn bad_tag(what: &str, tag: u8) -> WireError {
    WireError::Decode(format!("unknown {what} tag {tag}"))
}

fn put_batch<T: Wire>(out: &mut Vec<u8>, members: &[T]) {
    put_u32(out, members.len() as u32);
    for m in members {
        m.encode(out);
    }
}

/// Decode the members of a batch with `member`, which is handed each
/// member's tag. The count is checked before anything is allocated, and a
/// member that is itself a batch is refused (`batch_tag`).
fn get_batch<T>(
    r: &mut Reader,
    batch_tag: u8,
    member: fn(u8, &mut Reader) -> Result<T, WireError>,
) -> Result<Vec<T>, WireError> {
    let n = r.u32()? as usize;
    if n > MAX_BATCH_OPS {
        return Err(WireError::Decode(format!("batch of {n} members (limit {MAX_BATCH_OPS})")));
    }
    let mut v = Vec::with_capacity(n);
    for _ in 0..n {
        let tag = r.u8()?;
        if tag == batch_tag {
            return Err(WireError::Decode("nested batch".into()));
        }
        v.push(member(tag, r)?);
    }
    Ok(v)
}

fn put_group(out: &mut Vec<u8>, g: &GroupSpec) {
    put_i64(out, g.grp_id);
    put_i64(out, g.dbid);
    put_str(out, &g.table_name);
    put_str(out, &g.column_name);
    put_i64(out, g.access.code());
    put_bool(out, g.recovery);
}

fn get_group(r: &mut Reader) -> Result<GroupSpec, WireError> {
    Ok(GroupSpec {
        grp_id: r.i64()?,
        dbid: r.i64()?,
        table_name: r.str()?,
        column_name: r.str()?,
        access: AccessControl::from_code(r.i64()?),
        recovery: r.bool()?,
    })
}

fn put_vec_i64(out: &mut Vec<u8>, v: &[i64]) {
    put_u32(out, v.len() as u32);
    for x in v {
        put_i64(out, *x);
    }
}

fn get_vec_i64(r: &mut Reader) -> Result<Vec<i64>, WireError> {
    let n = r.u32()? as usize;
    let mut v = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        v.push(r.i64()?);
    }
    Ok(v)
}

fn put_vec_str(out: &mut Vec<u8>, v: &[String]) {
    put_u32(out, v.len() as u32);
    for s in v {
        put_str(out, s);
    }
}

fn get_vec_str(r: &mut Reader) -> Result<Vec<String>, WireError> {
    let n = r.u32()? as usize;
    let mut v = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        v.push(r.str()?);
    }
    Ok(v)
}

fn put_entries(out: &mut Vec<u8>, v: &[(String, i64)]) {
    put_u32(out, v.len() as u32);
    for (s, id) in v {
        put_str(out, s);
        put_i64(out, *id);
    }
}

fn get_entries(r: &mut Reader) -> Result<Vec<(String, i64)>, WireError> {
    let n = r.u32()? as usize;
    let mut v = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        let s = r.str()?;
        let id = r.i64()?;
        v.push((s, id));
    }
    Ok(v)
}

fn put_link_rows(out: &mut Vec<u8>, v: &[LinkRow]) {
    put_u32(out, v.len() as u32);
    for row in v {
        put_i64(out, row.dbid);
        put_str(out, &row.filename);
        put_i64(out, row.grp_id);
        put_i64(out, row.link_xid);
        put_i64(out, row.rec_id);
        put_i64(out, row.access_ctl);
        put_i64(out, row.recovery);
        put_str(out, &row.orig_owner);
        put_i64(out, row.orig_mode);
        put_i64(out, row.fsid);
        put_i64(out, row.inode);
    }
}

fn get_link_rows(r: &mut Reader) -> Result<Vec<LinkRow>, WireError> {
    let n = r.u32()? as usize;
    let mut v = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        v.push(LinkRow {
            dbid: r.i64()?,
            filename: r.str()?,
            grp_id: r.i64()?,
            link_xid: r.i64()?,
            rec_id: r.i64()?,
            access_ctl: r.i64()?,
            recovery: r.i64()?,
            orig_owner: r.str()?,
            orig_mode: r.i64()?,
            fsid: r.i64()?,
            inode: r.i64()?,
        });
    }
    Ok(v)
}

fn db_kind_code(k: DbErrorKind) -> u8 {
    match k {
        DbErrorKind::Deadlock => 0,
        DbErrorKind::LockTimeout => 1,
        DbErrorKind::LogFull => 2,
        DbErrorKind::Other => 3,
    }
}

fn db_kind_from(code: u8) -> DbErrorKind {
    match code {
        0 => DbErrorKind::Deadlock,
        1 => DbErrorKind::LockTimeout,
        2 => DbErrorKind::LogFull,
        _ => DbErrorKind::Other,
    }
}

fn put_err(out: &mut Vec<u8>, e: &DlfmError) {
    match e {
        DlfmError::AlreadyLinked(p) => {
            put_u8(out, 0);
            put_str(out, p);
        }
        DlfmError::NotLinked(p) => {
            put_u8(out, 1);
            put_str(out, p);
        }
        DlfmError::NoSuchFile(p) => {
            put_u8(out, 2);
            put_str(out, p);
        }
        DlfmError::NoSuchGroup(g) => {
            put_u8(out, 3);
            put_i64(out, *g);
        }
        DlfmError::FileBusy(p) => {
            put_u8(out, 4);
            put_str(out, p);
        }
        DlfmError::UnknownTxn(x) => {
            put_u8(out, 5);
            put_i64(out, *x);
        }
        DlfmError::NotPrepared(x) => {
            put_u8(out, 6);
            put_i64(out, *x);
        }
        DlfmError::Db { msg, retryable, kind } => {
            put_u8(out, 7);
            put_str(out, msg);
            put_bool(out, *retryable);
            put_u8(out, db_kind_code(*kind));
        }
        DlfmError::Fs(m) => {
            put_u8(out, 8);
            put_str(out, m);
        }
        DlfmError::Protocol(m) => {
            put_u8(out, 9);
            put_str(out, m);
        }
    }
}

fn get_err(r: &mut Reader) -> Result<DlfmError, WireError> {
    let tag = r.u8()?;
    Ok(match tag {
        0 => DlfmError::AlreadyLinked(r.str()?),
        1 => DlfmError::NotLinked(r.str()?),
        2 => DlfmError::NoSuchFile(r.str()?),
        3 => DlfmError::NoSuchGroup(r.i64()?),
        4 => DlfmError::FileBusy(r.str()?),
        5 => DlfmError::UnknownTxn(r.i64()?),
        6 => DlfmError::NotPrepared(r.i64()?),
        7 => DlfmError::Db { msg: r.str()?, retryable: r.bool()?, kind: db_kind_from(r.u8()?) },
        8 => DlfmError::Fs(r.str()?),
        9 => DlfmError::Protocol(r.str()?),
        t => return Err(bad_tag("DlfmError", t)),
    })
}

impl Wire for DlfmRequest {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            DlfmRequest::Connect { dbid } => {
                put_u8(out, 0);
                put_i64(out, *dbid);
            }
            DlfmRequest::BeginTxn { xid } => {
                put_u8(out, 1);
                put_i64(out, *xid);
            }
            DlfmRequest::LinkFile { xid, rec_id, grp_id, filename, in_backout } => {
                put_u8(out, 2);
                put_i64(out, *xid);
                put_i64(out, *rec_id);
                put_i64(out, *grp_id);
                put_str(out, filename);
                put_bool(out, *in_backout);
            }
            DlfmRequest::UnlinkFile { xid, rec_id, grp_id, filename, in_backout } => {
                put_u8(out, 3);
                put_i64(out, *xid);
                put_i64(out, *rec_id);
                put_i64(out, *grp_id);
                put_str(out, filename);
                put_bool(out, *in_backout);
            }
            DlfmRequest::Prepare { xid } => {
                put_u8(out, 4);
                put_i64(out, *xid);
            }
            DlfmRequest::Commit { xid } => {
                put_u8(out, 5);
                put_i64(out, *xid);
            }
            DlfmRequest::Abort { xid } => {
                put_u8(out, 6);
                put_i64(out, *xid);
            }
            DlfmRequest::RegisterGroup(g) => {
                put_u8(out, 7);
                put_group(out, g);
            }
            DlfmRequest::DeleteGroup { xid, grp_id, rec_id } => {
                put_u8(out, 8);
                put_i64(out, *xid);
                put_i64(out, *grp_id);
                put_i64(out, *rec_id);
            }
            DlfmRequest::IssueToken { filename } => {
                put_u8(out, 9);
                put_str(out, filename);
            }
            DlfmRequest::ListIndoubt => put_u8(out, 10),
            DlfmRequest::BeginBackup { backup_id, rec_id } => {
                put_u8(out, 11);
                put_i64(out, *backup_id);
                put_i64(out, *rec_id);
            }
            DlfmRequest::EndBackup { backup_id, success } => {
                put_u8(out, 12);
                put_i64(out, *backup_id);
                put_bool(out, *success);
            }
            DlfmRequest::RestoreTo { rec_id } => {
                put_u8(out, 13);
                put_i64(out, *rec_id);
            }
            DlfmRequest::Reconcile { entries } => {
                put_u8(out, 14);
                put_entries(out, entries);
            }
            DlfmRequest::UpcallQuery { filename } => {
                put_u8(out, 15);
                put_str(out, filename);
            }
            DlfmRequest::PendingCopies => put_u8(out, 16),
            DlfmRequest::Ping => put_u8(out, 17),
            DlfmRequest::ExportLinks { prefix, remove } => {
                put_u8(out, 18);
                put_str(out, prefix);
                put_bool(out, *remove);
            }
            DlfmRequest::ImportLinks { entries } => {
                put_u8(out, 19);
                put_link_rows(out, entries);
            }
            DlfmRequest::FetchTelemetry { kind } => {
                put_u8(out, 20);
                put_u8(out, kind.code());
            }
            DlfmRequest::Batch(members) => {
                put_u8(out, REQ_BATCH);
                put_batch(out, members);
            }
        }
    }

    fn decode(r: &mut Reader) -> Result<DlfmRequest, WireError> {
        match r.u8()? {
            REQ_BATCH => Ok(DlfmRequest::Batch(get_batch(r, REQ_BATCH, get_request)?)),
            tag => get_request(tag, r),
        }
    }
}

/// Decode the fields of the (non-batch) request variant `tag`.
fn get_request(tag: u8, r: &mut Reader) -> Result<DlfmRequest, WireError> {
    Ok(match tag {
        0 => DlfmRequest::Connect { dbid: r.i64()? },
        1 => DlfmRequest::BeginTxn { xid: r.i64()? },
        2 => DlfmRequest::LinkFile {
            xid: r.i64()?,
            rec_id: r.i64()?,
            grp_id: r.i64()?,
            filename: r.str()?,
            in_backout: r.bool()?,
        },
        3 => DlfmRequest::UnlinkFile {
            xid: r.i64()?,
            rec_id: r.i64()?,
            grp_id: r.i64()?,
            filename: r.str()?,
            in_backout: r.bool()?,
        },
        4 => DlfmRequest::Prepare { xid: r.i64()? },
        5 => DlfmRequest::Commit { xid: r.i64()? },
        6 => DlfmRequest::Abort { xid: r.i64()? },
        7 => DlfmRequest::RegisterGroup(get_group(r)?),
        8 => DlfmRequest::DeleteGroup { xid: r.i64()?, grp_id: r.i64()?, rec_id: r.i64()? },
        9 => DlfmRequest::IssueToken { filename: r.str()? },
        10 => DlfmRequest::ListIndoubt,
        11 => DlfmRequest::BeginBackup { backup_id: r.i64()?, rec_id: r.i64()? },
        12 => DlfmRequest::EndBackup { backup_id: r.i64()?, success: r.bool()? },
        13 => DlfmRequest::RestoreTo { rec_id: r.i64()? },
        14 => DlfmRequest::Reconcile { entries: get_entries(r)? },
        15 => DlfmRequest::UpcallQuery { filename: r.str()? },
        16 => DlfmRequest::PendingCopies,
        17 => DlfmRequest::Ping,
        18 => DlfmRequest::ExportLinks { prefix: r.str()?, remove: r.bool()? },
        19 => DlfmRequest::ImportLinks { entries: get_link_rows(r)? },
        20 => DlfmRequest::FetchTelemetry {
            kind: {
                let c = r.u8()?;
                TelemetryKind::from_code(c).ok_or_else(|| bad_tag("TelemetryKind", c))?
            },
        },
        t => return Err(bad_tag("DlfmRequest", t)),
    })
}

impl Wire for DlfmResponse {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            DlfmResponse::Ok => put_u8(out, 0),
            DlfmResponse::Prepared { read_only } => {
                put_u8(out, 1);
                put_bool(out, *read_only);
            }
            DlfmResponse::Err(e) => {
                put_u8(out, 2);
                put_err(out, e);
            }
            DlfmResponse::Token(t) => {
                put_u8(out, 3);
                put_str(out, t);
            }
            DlfmResponse::Indoubt(xids) => {
                put_u8(out, 4);
                put_vec_i64(out, xids);
            }
            DlfmResponse::LinkState(s) => {
                put_u8(out, 5);
                put_u8(
                    out,
                    match s {
                        LinkStatus::NotLinked => 0,
                        LinkStatus::LinkedPartial => 1,
                        LinkStatus::LinkedFull => 2,
                    },
                );
            }
            DlfmResponse::ReconcileReport { broken_host_refs, orphans_unlinked } => {
                put_u8(out, 6);
                put_entries(out, broken_host_refs);
                put_vec_str(out, orphans_unlinked);
            }
            DlfmResponse::Count(n) => {
                put_u8(out, 7);
                put_i64(out, *n);
            }
            DlfmResponse::Links(rows) => {
                put_u8(out, 8);
                put_link_rows(out, rows);
            }
            DlfmResponse::Telemetry(text) => {
                put_u8(out, 9);
                put_str(out, text);
            }
            DlfmResponse::Batch(replies) => {
                put_u8(out, RESP_BATCH);
                put_batch(out, replies);
            }
        }
    }

    fn decode(r: &mut Reader) -> Result<DlfmResponse, WireError> {
        match r.u8()? {
            RESP_BATCH => Ok(DlfmResponse::Batch(get_batch(r, RESP_BATCH, get_response)?)),
            tag => get_response(tag, r),
        }
    }
}

/// Decode the fields of the (non-batch) response variant `tag`.
fn get_response(tag: u8, r: &mut Reader) -> Result<DlfmResponse, WireError> {
    Ok(match tag {
        0 => DlfmResponse::Ok,
        1 => DlfmResponse::Prepared { read_only: r.bool()? },
        2 => DlfmResponse::Err(get_err(r)?),
        3 => DlfmResponse::Token(r.str()?),
        4 => DlfmResponse::Indoubt(get_vec_i64(r)?),
        5 => DlfmResponse::LinkState(match r.u8()? {
            0 => LinkStatus::NotLinked,
            1 => LinkStatus::LinkedPartial,
            2 => LinkStatus::LinkedFull,
            t => return Err(bad_tag("LinkStatus", t)),
        }),
        6 => DlfmResponse::ReconcileReport {
            broken_host_refs: get_entries(r)?,
            orphans_unlinked: get_vec_str(r)?,
        },
        7 => DlfmResponse::Count(r.i64()?),
        8 => DlfmResponse::Links(get_link_rows(r)?),
        9 => DlfmResponse::Telemetry(r.str()?),
        t => return Err(bad_tag("DlfmResponse", t)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_req(req: DlfmRequest) {
        let mut buf = Vec::new();
        req.encode(&mut buf);
        let mut r = Reader::new(&buf);
        let back = DlfmRequest::decode(&mut r).unwrap();
        assert_eq!(back, req);
        assert_eq!(r.remaining(), 0, "trailing bytes after {req:?}");
    }

    fn roundtrip_resp(resp: DlfmResponse) {
        let mut buf = Vec::new();
        resp.encode(&mut buf);
        let mut r = Reader::new(&buf);
        let back = DlfmResponse::decode(&mut r).unwrap();
        assert_eq!(back, resp);
        assert_eq!(r.remaining(), 0, "trailing bytes after {resp:?}");
    }

    #[test]
    fn request_roundtrip_every_variant() {
        roundtrip_req(DlfmRequest::Connect { dbid: 7 });
        roundtrip_req(DlfmRequest::BeginTxn { xid: -3 });
        roundtrip_req(DlfmRequest::LinkFile {
            xid: 1,
            rec_id: 2,
            grp_id: 3,
            filename: "/a/b/c.dat".into(),
            in_backout: true,
        });
        roundtrip_req(DlfmRequest::UnlinkFile {
            xid: 9,
            rec_id: 8,
            grp_id: 7,
            filename: "/x/ünïcode/ファイル".into(),
            in_backout: false,
        });
        roundtrip_req(DlfmRequest::Prepare { xid: i64::MAX });
        roundtrip_req(DlfmRequest::Commit { xid: i64::MIN });
        roundtrip_req(DlfmRequest::Abort { xid: 0 });
        roundtrip_req(DlfmRequest::RegisterGroup(GroupSpec {
            grp_id: 4,
            dbid: 5,
            table_name: "t".into(),
            column_name: "".into(),
            access: AccessControl::Full,
            recovery: true,
        }));
        roundtrip_req(DlfmRequest::DeleteGroup { xid: 1, grp_id: 2, rec_id: 3 });
        roundtrip_req(DlfmRequest::IssueToken { filename: "/f".into() });
        roundtrip_req(DlfmRequest::ListIndoubt);
        roundtrip_req(DlfmRequest::BeginBackup { backup_id: 11, rec_id: 12 });
        roundtrip_req(DlfmRequest::EndBackup { backup_id: 11, success: false });
        roundtrip_req(DlfmRequest::RestoreTo { rec_id: 99 });
        roundtrip_req(DlfmRequest::Reconcile {
            entries: vec![("/p/q".into(), 1), ("".into(), -5)],
        });
        roundtrip_req(DlfmRequest::UpcallQuery { filename: "/u".into() });
        roundtrip_req(DlfmRequest::PendingCopies);
        roundtrip_req(DlfmRequest::Ping);
        roundtrip_req(DlfmRequest::ExportLinks { prefix: "/shard/h7".into(), remove: true });
        roundtrip_req(DlfmRequest::ImportLinks { entries: vec![] });
        roundtrip_req(DlfmRequest::ImportLinks { entries: vec![sample_link_row()] });
        for kind in [
            TelemetryKind::Metrics,
            TelemetryKind::Status,
            TelemetryKind::Journal,
            TelemetryKind::Spans,
            TelemetryKind::Clock,
        ] {
            roundtrip_req(DlfmRequest::FetchTelemetry { kind });
        }
        roundtrip_req(DlfmRequest::Batch(vec![]));
        roundtrip_req(DlfmRequest::Batch(vec![
            sample_link(),
            DlfmRequest::UnlinkFile {
                xid: 1,
                rec_id: 3,
                grp_id: 3,
                filename: "/a/b/d.dat".into(),
                in_backout: false,
            },
            DlfmRequest::Prepare { xid: 1 },
        ]));
        roundtrip_req(DlfmRequest::Batch(vec![sample_link(); MAX_BATCH_OPS]));
    }

    fn sample_link() -> DlfmRequest {
        DlfmRequest::LinkFile {
            xid: 1,
            rec_id: 2,
            grp_id: 3,
            filename: "/a/b/c.dat".into(),
            in_backout: false,
        }
    }

    fn sample_link_row() -> LinkRow {
        LinkRow {
            dbid: 1,
            filename: "/shard/h7/f0".into(),
            grp_id: 4,
            link_xid: 99,
            rec_id: (1i64 << 48) | 12,
            access_ctl: 2,
            recovery: 1,
            orig_owner: "user".into(),
            orig_mode: 0o644,
            fsid: 3,
            inode: 41,
        }
    }

    #[test]
    fn response_roundtrip_every_variant() {
        roundtrip_resp(DlfmResponse::Ok);
        roundtrip_resp(DlfmResponse::Prepared { read_only: true });
        for e in [
            DlfmError::AlreadyLinked("/a".into()),
            DlfmError::NotLinked("/b".into()),
            DlfmError::NoSuchFile("/c".into()),
            DlfmError::NoSuchGroup(5),
            DlfmError::FileBusy("/d".into()),
            DlfmError::UnknownTxn(6),
            DlfmError::NotPrepared(7),
            DlfmError::Db {
                msg: "deadlock victim".into(),
                retryable: true,
                kind: DbErrorKind::Deadlock,
            },
            DlfmError::Fs("enoent".into()),
            DlfmError::Protocol("no connect".into()),
        ] {
            roundtrip_resp(DlfmResponse::Err(e));
        }
        roundtrip_resp(DlfmResponse::Token("tok-123".into()));
        roundtrip_resp(DlfmResponse::Indoubt(vec![]));
        roundtrip_resp(DlfmResponse::Indoubt(vec![1, -2, i64::MAX]));
        for s in [LinkStatus::NotLinked, LinkStatus::LinkedPartial, LinkStatus::LinkedFull] {
            roundtrip_resp(DlfmResponse::LinkState(s));
        }
        roundtrip_resp(DlfmResponse::ReconcileReport {
            broken_host_refs: vec![("/gone".into(), 4)],
            orphans_unlinked: vec!["/orphan".into()],
        });
        roundtrip_resp(DlfmResponse::Count(-1));
        roundtrip_resp(DlfmResponse::Links(vec![]));
        roundtrip_resp(DlfmResponse::Links(vec![sample_link_row(), sample_link_row()]));
        roundtrip_resp(DlfmResponse::Telemetry(String::new()));
        roundtrip_resp(DlfmResponse::Telemetry("# HELP x\nx 1\n".into()));
        roundtrip_resp(DlfmResponse::Batch(vec![]));
        roundtrip_resp(DlfmResponse::Batch(vec![
            DlfmResponse::Ok,
            DlfmResponse::Ok,
            DlfmResponse::Prepared { read_only: false },
        ]));
        roundtrip_resp(DlfmResponse::Batch(vec![
            DlfmResponse::Ok,
            DlfmResponse::Err(DlfmError::AlreadyLinked("/a".into())),
        ]));
    }

    #[test]
    fn malformed_batches_are_refused_before_they_cost_anything() {
        fn decode_req(buf: &[u8]) -> Result<DlfmRequest, WireError> {
            DlfmRequest::decode(&mut Reader::new(buf))
        }
        fn decode_resp(buf: &[u8]) -> Result<DlfmResponse, WireError> {
            DlfmResponse::decode(&mut Reader::new(buf))
        }
        // Nested: a batch whose member is a batch.
        let mut nested = Vec::new();
        DlfmRequest::Batch(vec![DlfmRequest::Batch(vec![sample_link()])]).encode(&mut nested);
        assert!(matches!(decode_req(&nested), Err(WireError::Decode(m)) if m.contains("nested")));
        let mut nested = Vec::new();
        DlfmResponse::Batch(vec![DlfmResponse::Batch(vec![])]).encode(&mut nested);
        assert!(matches!(decode_resp(&nested), Err(WireError::Decode(m)) if m.contains("nested")));
        // A count past the limit is refused on sight: these five bytes
        // claim four billion members and carry none.
        let mut huge = vec![REQ_BATCH];
        put_u32(&mut huge, u32::MAX);
        assert!(matches!(decode_req(&huge), Err(WireError::Decode(m)) if m.contains("limit")));
        let mut over = Vec::new();
        DlfmRequest::Batch(vec![sample_link(); MAX_BATCH_OPS + 1]).encode(&mut over);
        assert!(matches!(decode_req(&over), Err(WireError::Decode(m)) if m.contains("limit")));
        let mut huge = vec![RESP_BATCH];
        put_u32(&mut huge, MAX_BATCH_OPS as u32 + 1);
        assert!(decode_resp(&huge).is_err());
        // Truncated: fewer members than the count, or half a member.
        let mut short = Vec::new();
        DlfmRequest::Batch(vec![sample_link(), DlfmRequest::Prepare { xid: 1 }]).encode(&mut short);
        for cut in [1, 5, short.len() - 9, short.len() - 1] {
            assert!(decode_req(&short[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn unknown_telemetry_kind_fails_cleanly() {
        let buf = [20u8, 250u8];
        let mut r = Reader::new(&buf);
        assert!(matches!(DlfmRequest::decode(&mut r), Err(WireError::Decode(_))));
    }

    #[test]
    fn unknown_tags_fail_cleanly() {
        let mut r = Reader::new(&[200u8]);
        assert!(matches!(DlfmRequest::decode(&mut r), Err(WireError::Decode(_))));
        let mut r = Reader::new(&[200u8]);
        assert!(matches!(DlfmResponse::decode(&mut r), Err(WireError::Decode(_))));
        // Truncated mid-variant: error, not panic.
        let mut buf = Vec::new();
        DlfmRequest::LinkFile {
            xid: 1,
            rec_id: 2,
            grp_id: 3,
            filename: "/a".into(),
            in_backout: false,
        }
        .encode(&mut buf);
        buf.truncate(buf.len() - 3);
        let mut r = Reader::new(&buf);
        assert!(DlfmRequest::decode(&mut r).is_err());
    }
}
