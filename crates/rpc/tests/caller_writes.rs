//! The wire transport without writer threads: whoever has a frame writes
//! it, under the socket's write lock.
//!
//! Thread counts are process-wide and `obs::fault` is process-global,
//! which is why these tests have a binary of their own and take `SERIAL`.

use std::sync::atomic::Ordering;
use std::sync::Mutex;
use std::time::Duration;

use dlrpc::wire::{put_u32, put_u8};
use dlrpc::{
    fabric, serve, serve_wire, wire_connector, AgentModel, PoolEvent, Reader, ReplySlot, RpcError,
    SocketListener, Wire, WireAddr, WireError, WireServer,
};
use obs::fault::{self, Trigger};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// An opaque payload: what goes in must come back byte for byte.
#[derive(Debug, Clone, PartialEq)]
struct Blob(Vec<u8>);

impl Wire for Blob {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u32(out, self.0.len() as u32);
        for b in &self.0 {
            put_u8(out, *b);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Blob, WireError> {
        let n = r.u32()? as usize;
        if n > r.remaining() {
            return Err(WireError::Decode(format!("blob of {n} bytes in a shorter payload")));
        }
        (0..n).map(|_| r.u8()).collect::<Result<Vec<u8>, _>>().map(Blob)
    }
}

/// A pooled echo server in this process, bridged onto a Unix socket.
fn echo_server(tag: &str, workers: usize) -> (WireAddr, dlrpc::ServerHandle, WireServer) {
    let model =
        AgentModel::Pooled { workers, queue_depth: 256, admission_timeout: Duration::from_secs(5) };
    let (listener, connector) = fabric::<Blob, Blob>(model);
    let handle = serve(listener, || {
        |ev: PoolEvent<Blob>, slot: ReplySlot<Blob>| {
            if let PoolEvent::Request { req, .. } = ev {
                slot.send(req)
            }
        }
    });
    let path = std::env::temp_dir().join(format!("dlrpc-cw-{tag}-{}.sock", std::process::id()));
    let sock = SocketListener::bind(&WireAddr::Unix(path)).unwrap();
    let bound = sock.bound_addr();
    let bridge = serve_wire(sock, &connector);
    (bound, handle, bridge)
}

fn threads_in_process() -> usize {
    std::fs::read_dir("/proc/self/task").expect("procfs").count()
}

#[test]
fn concurrent_callers_on_one_mux_never_interleave_frames() {
    let _s = serial();
    let (addr, _srv, bridge) = echo_server("mix", 4);
    let remote = wire_connector::<Blob, Blob>(addr);
    const THREADS: u64 = 8;
    const CALLS: u64 = 500;
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let remote = &remote;
            scope.spawn(move || {
                let conn = remote.connect().unwrap();
                let mut x = 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(t + 1);
                for k in 0..CALLS {
                    // xorshift: sizes from 1 B to 64 KiB, skewed small.
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let len = match k % 10 {
                        0 => 1 + (x % 65_536) as usize,
                        1..=3 => 1 + (x % 4_096) as usize,
                        _ => 1 + (x % 64) as usize,
                    };
                    let mut body = vec![t as u8; len];
                    body[len / 2] = k as u8;
                    let back = conn.call(Blob(body.clone())).unwrap();
                    assert_eq!(back.0, body, "thread {t} call {k}: reply is not its request");
                }
            });
        }
    });
    let client = remote.wire_stats().unwrap();
    assert_eq!(client.decode_errors(), 0, "a reply frame was torn");
    assert_eq!(bridge.wire_stats().decode_errors(), 0, "a request frame was torn");
    assert!(client.frames_tx.load(Ordering::Relaxed) >= THREADS * CALLS);
    assert_eq!(remote.epoch(), 0, "the connection survived");
}

#[test]
fn a_dialled_connection_costs_one_reader_thread_on_each_side() {
    let _s = serial();
    let (addr, _srv, _bridge) = echo_server("threads", 2);
    // The test harness starts the next test's thread (which then blocks on
    // `serial`) whenever a test finishes — possibly just now. Let the count
    // settle before taking the baseline.
    let mut before = threads_in_process();
    loop {
        std::thread::sleep(Duration::from_millis(50));
        let now = threads_in_process();
        if now == before {
            break;
        }
        before = now;
    }
    let first = wire_connector::<Blob, Blob>(addr.clone());
    let c1 = first.connect().unwrap();
    assert_eq!(c1.call(Blob(vec![1])).unwrap(), Blob(vec![1]));
    // The reply proves both ends are up: the client's reader delivered it
    // and the bridge's reader decoded the request.
    assert_eq!(threads_in_process(), before + 2, "client reader + server reader, no writers");
    // More sessions on the same socket cost no threads at all ...
    let sessions: Vec<_> = (0..16).map(|_| first.connect().unwrap()).collect();
    for s in &sessions {
        assert_eq!(s.call(Blob(vec![2])).unwrap(), Blob(vec![2]));
    }
    assert_eq!(threads_in_process(), before + 2);
    // ... and a second socket costs two more.
    let second = wire_connector::<Blob, Blob>(addr);
    let c2 = second.connect().unwrap();
    assert_eq!(c2.call(Blob(vec![3])).unwrap(), Blob(vec![3]));
    assert_eq!(threads_in_process(), before + 4);
}

#[test]
fn a_failed_write_severs_the_connection_once() {
    let _s = serial();
    let (addr, _srv, _bridge) = echo_server("sever", 2);
    let remote = wire_connector::<Blob, Blob>(addr);
    let conn = remote.connect().unwrap();
    let other = remote.connect().unwrap();
    assert_eq!(conn.call(Blob(vec![1])).unwrap(), Blob(vec![1]));
    {
        // Half a frame reaches the server, then the socket drops: the
        // writer reports it, and so does every later use of the socket.
        let _g = fault::install_guarded(1, &[("rpc.wire.truncate", Trigger::Times(1))]);
        let err = conn.call_timeout(Blob(vec![9; 100]), Duration::from_secs(5)).unwrap_err();
        assert_eq!(err, RpcError::Disconnected);
    }
    assert_eq!(other.call(Blob(vec![2])).unwrap_err(), RpcError::Disconnected);
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while remote.epoch() == 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(remote.epoch(), 1, "one death, counted once by the reader");
    {
        // A stalled frame is late, not lost.
        let fresh = remote.connect().unwrap();
        let _g = fault::install_guarded(1, &[("rpc.wire.stall", Trigger::Times(1))]);
        assert_eq!(fresh.call(Blob(vec![3])).unwrap(), Blob(vec![3]));
        assert_eq!(fault::fires("rpc.wire.stall"), 1);
    }
    assert_eq!(remote.epoch(), 1);
    assert_eq!(remote.wire_stats().unwrap().reconnects(), 1);
}
