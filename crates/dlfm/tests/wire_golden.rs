//! Golden bytes: the payload encoding of every DLFM message, pinned.
//!
//! A `dlfmd` and a host built from different revisions of this tree talk
//! over a socket, so a codec change that moves one tag or reorders one
//! field must fail here, not in a mixed fleet. Each line is a value and
//! its encoding as hex; the value must encode to exactly those bytes and
//! the bytes must decode back to exactly that value. A new message needs
//! one new line here, and no line may change.

use dlfm::api::LinkRow;
use dlfm::{
    AccessControl, DbErrorKind, DlfmError, DlfmRequest, DlfmResponse, GroupSpec, LinkStatus,
    TelemetryKind,
};
use dlrpc::{Reader, Wire};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len()).step_by(2).map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap()).collect()
}

fn check<T: Wire + PartialEq + std::fmt::Debug>(value: T, golden: &str) {
    let mut out = Vec::new();
    value.encode(&mut out);
    assert_eq!(hex(&out), golden, "encoding of {value:?}");
    let bytes = unhex(golden);
    let mut r = Reader::new(&bytes);
    assert_eq!(T::decode(&mut r).unwrap(), value, "decoding of {golden}");
    assert_eq!(r.remaining(), 0, "trailing bytes after {value:?}");
}

fn link(xid: i64, rec_id: i64, filename: &str, in_backout: bool) -> DlfmRequest {
    DlfmRequest::LinkFile { xid, rec_id, grp_id: 3, filename: filename.into(), in_backout }
}

fn link_row() -> LinkRow {
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
fn every_request_encodes_to_its_golden_bytes() {
    let group = |access| GroupSpec {
        grp_id: 4,
        dbid: 5,
        table_name: "t".into(),
        column_name: "".into(),
        access,
        recovery: true,
    };
    let golden: Vec<(DlfmRequest, &str)> = vec![
        (DlfmRequest::Connect { dbid: 7 }, "000700000000000000"),
        (DlfmRequest::BeginTxn { xid: -3 }, "01fdffffffffffffff"),
        (link(1, 2, "/a/b/c.dat", true), "020100000000000000020000000000000003000000000000000a0000002f612f622f632e64617401"),
        (
            DlfmRequest::UnlinkFile {
                xid: 9,
                rec_id: 8,
                grp_id: 7,
                filename: "/x/ünïcode/ファイル".into(),
                in_backout: false,
            },
            "03090000000000000008000000000000000700000000000000190000002f782fc3bc6ec3af636f64652fe38395e382a1e382a4e383ab00",
        ),
        (DlfmRequest::Prepare { xid: i64::MAX }, "04ffffffffffffff7f"),
        (DlfmRequest::Commit { xid: i64::MIN }, "050000000000000080"),
        (DlfmRequest::Abort { xid: 0 }, "060000000000000000"),
        (DlfmRequest::RegisterGroup(group(AccessControl::None)), "0704000000000000000500000000000000010000007400000000000000000000000001"),
        (DlfmRequest::RegisterGroup(group(AccessControl::Partial)), "0704000000000000000500000000000000010000007400000000010000000000000001"),
        (DlfmRequest::RegisterGroup(group(AccessControl::Full)), "0704000000000000000500000000000000010000007400000000020000000000000001"),
        (DlfmRequest::DeleteGroup { xid: 1, grp_id: 2, rec_id: 3 }, "08010000000000000002000000000000000300000000000000"),
        (DlfmRequest::IssueToken { filename: "/f".into() }, "09020000002f66"),
        (DlfmRequest::ListIndoubt, "0a"),
        (DlfmRequest::BeginBackup { backup_id: 11, rec_id: 12 }, "0b0b000000000000000c00000000000000"),
        (DlfmRequest::EndBackup { backup_id: 11, success: false }, "0c0b0000000000000000"),
        (DlfmRequest::RestoreTo { rec_id: 99 }, "0d6300000000000000"),
        (DlfmRequest::Reconcile { entries: vec![("/p/q".into(), 1), ("".into(), -5)] }, "0e02000000040000002f702f71010000000000000000000000fbffffffffffffff"),
        (DlfmRequest::UpcallQuery { filename: "/u".into() }, "0f020000002f75"),
        (DlfmRequest::PendingCopies, "10"),
        (DlfmRequest::Ping, "11"),
        (DlfmRequest::ExportLinks { prefix: "/shard/h7".into(), remove: true }, "12090000002f73686172642f683701"),
        (DlfmRequest::ImportLinks { entries: vec![] }, "1300000000"),
        (DlfmRequest::ImportLinks { entries: vec![link_row()] }, "130100000001000000000000000c0000002f73686172642f68372f6630040000000000000063000000000000000c00000000000100020000000000000001000000000000000400000075736572a40100000000000003000000000000002900000000000000"),
        (DlfmRequest::FetchTelemetry { kind: TelemetryKind::Metrics }, "1400"),
        (DlfmRequest::FetchTelemetry { kind: TelemetryKind::Status }, "1401"),
        (DlfmRequest::FetchTelemetry { kind: TelemetryKind::Journal }, "1402"),
        (DlfmRequest::FetchTelemetry { kind: TelemetryKind::Spans }, "1403"),
        (DlfmRequest::FetchTelemetry { kind: TelemetryKind::Clock }, "1404"),
        (DlfmRequest::Batch(vec![]), "1500000000"),
        (
            DlfmRequest::Batch(vec![
                link(1, 2, "/a/b/c.dat", false),
                DlfmRequest::UnlinkFile {
                    xid: 1,
                    rec_id: 3,
                    grp_id: 3,
                    filename: "/a/b/d.dat".into(),
                    in_backout: false,
                },
                DlfmRequest::Prepare { xid: 1 },
            ]),
            "1503000000020100000000000000020000000000000003000000000000000a0000002f612f622f632e64617400030100000000000000030000000000000003000000000000000a0000002f612f622f642e64617400040100000000000000",
        ),
    ];
    for (value, bytes) in golden {
        check(value, bytes);
    }
}

#[test]
fn every_response_encodes_to_its_golden_bytes() {
    let db = |kind| DlfmError::Db { msg: "deadlock victim".into(), retryable: true, kind };
    let golden: Vec<(DlfmResponse, &str)> = vec![
        (DlfmResponse::Ok, "00"),
        (DlfmResponse::Prepared { read_only: true }, "0101"),
        (DlfmResponse::Prepared { read_only: false }, "0100"),
        (DlfmResponse::Err(DlfmError::AlreadyLinked("/a".into())), "0200020000002f61"),
        (DlfmResponse::Err(DlfmError::NotLinked("/b".into())), "0201020000002f62"),
        (DlfmResponse::Err(DlfmError::NoSuchFile("/c".into())), "0202020000002f63"),
        (DlfmResponse::Err(DlfmError::NoSuchGroup(5)), "02030500000000000000"),
        (DlfmResponse::Err(DlfmError::FileBusy("/d".into())), "0204020000002f64"),
        (DlfmResponse::Err(DlfmError::UnknownTxn(6)), "02050600000000000000"),
        (DlfmResponse::Err(DlfmError::NotPrepared(7)), "02060700000000000000"),
        (DlfmResponse::Err(db(DbErrorKind::Deadlock)), "02070f000000646561646c6f636b2076696374696d0100"),
        (DlfmResponse::Err(db(DbErrorKind::LockTimeout)), "02070f000000646561646c6f636b2076696374696d0101"),
        (DlfmResponse::Err(db(DbErrorKind::LogFull)), "02070f000000646561646c6f636b2076696374696d0102"),
        (DlfmResponse::Err(db(DbErrorKind::Other)), "02070f000000646561646c6f636b2076696374696d0103"),
        (DlfmResponse::Err(DlfmError::Fs("enoent".into())), "020806000000656e6f656e74"),
        (DlfmResponse::Err(DlfmError::Protocol("no connect".into())), "02090a0000006e6f20636f6e6e656374"),
        (DlfmResponse::Token("tok-123".into()), "0307000000746f6b2d313233"),
        (DlfmResponse::Indoubt(vec![]), "0400000000"),
        (DlfmResponse::Indoubt(vec![1, -2, i64::MAX]), "04030000000100000000000000feffffffffffffffffffffffffffff7f"),
        (DlfmResponse::LinkState(LinkStatus::NotLinked), "0500"),
        (DlfmResponse::LinkState(LinkStatus::LinkedPartial), "0501"),
        (DlfmResponse::LinkState(LinkStatus::LinkedFull), "0502"),
        (
            DlfmResponse::ReconcileReport {
                broken_host_refs: vec![("/gone".into(), 4)],
                orphans_unlinked: vec!["/orphan".into()],
            },
            "0601000000050000002f676f6e65040000000000000001000000070000002f6f727068616e",
        ),
        (DlfmResponse::Count(-1), "07ffffffffffffffff"),
        (DlfmResponse::Links(vec![]), "0800000000"),
        (DlfmResponse::Links(vec![link_row(), link_row()]), "080200000001000000000000000c0000002f73686172642f68372f6630040000000000000063000000000000000c00000000000100020000000000000001000000000000000400000075736572a4010000000000000300000000000000290000000000000001000000000000000c0000002f73686172642f68372f6630040000000000000063000000000000000c00000000000100020000000000000001000000000000000400000075736572a40100000000000003000000000000002900000000000000"),
        (DlfmResponse::Telemetry(String::new()), "0900000000"),
        (DlfmResponse::Telemetry("# HELP x\nx 1\n".into()), "090d000000232048454c5020780a7820310a"),
        (DlfmResponse::Batch(vec![]), "0a00000000"),
        (
            DlfmResponse::Batch(vec![
                DlfmResponse::Ok,
                DlfmResponse::Ok,
                DlfmResponse::Prepared { read_only: false },
            ]),
            "0a0300000000000100",
        ),
        (
            DlfmResponse::Batch(vec![
                DlfmResponse::Ok,
                DlfmResponse::Err(DlfmError::AlreadyLinked("/a".into())),
            ]),
            "0a02000000000200020000002f61",
        ),
    ];
    for (value, bytes) in golden {
        check(value, bytes);
    }
}
