//! The split-phase call (`start` / `wait`) and the wrappers over it, on
//! both carriers.
//!
//! Regression: `call_timeout` on the in-process transport used to send on
//! the raw queue — past admission control (no `pool.rejects`, `Timeout`
//! where `call` says `Overloaded`) and past every `rpc.call.*` fault
//! point. It is `start(..)?.wait(Some(t))` now, so whatever `call` sees,
//! `call_timeout` sees. The call-level fault points fire before the
//! carrier is chosen, so the in-process and the Unix-socket carrier see
//! them alike; so does a request that fails to decode.
//!
//! `obs::fault` is process-global, which is why these tests have a binary
//! of their own and take `SERIAL`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use dlrpc::wire::put_u8;
use dlrpc::{
    fabric, serve, serve_wire, wire_connector, AgentModel, Connector, PoolEvent, PoolStats, Reader,
    ReplySlot, RpcError, ServerHandle, SocketListener, Wire, WireAddr, WireError, WireServer,
};
use obs::fault::{self, Trigger};
use obs::trace::{self, Layer};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// A handler that answers each request with `f` and ignores hangups.
fn on_request<Req, Resp>(
    mut f: impl FnMut(Req, ReplySlot<Resp>) + Send,
) -> impl FnMut(PoolEvent<Req>, ReplySlot<Resp>) + Send {
    move |ev, slot| {
        if let PoolEvent::Request { req, .. } = ev {
            f(req, slot)
        }
    }
}

/// How the client reaches the fabric.
#[derive(Debug, Clone, Copy)]
enum Carrier {
    /// The fabric's own connector: session queues in this process.
    InProcess,
    /// A Unix socket bridged onto the fabric, dialled by a wire connector.
    UnixSocket,
}

const CARRIERS: [Carrier; 2] = [Carrier::InProcess, Carrier::UnixSocket];

fn pooled(queue_depth: usize) -> AgentModel {
    AgentModel::Pooled { workers: 1, queue_depth, admission_timeout: Duration::from_secs(1) }
}

/// A served fabric and a client connector reaching it over `carrier`.
struct Stand<Req, Resp> {
    client: Connector<Req, Resp>,
    pool: Arc<PoolStats>,
    handle: ServerHandle,
    bridge: Option<WireServer>,
}

fn stand<Req, Resp, H>(
    model: AgentModel,
    carrier: Carrier,
    factory: impl FnMut() -> H + Send + 'static,
) -> Stand<Req, Resp>
where
    Req: Wire + 'static,
    Resp: Wire + 'static,
    H: FnMut(PoolEvent<Req>, ReplySlot<Resp>) + Send + 'static,
{
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let (listener, connector) = fabric::<Req, Resp>(model);
    let pool = listener.pool_stats().clone();
    let handle = serve(listener, factory);
    let (client, bridge) = match carrier {
        Carrier::InProcess => (connector, None),
        Carrier::UnixSocket => {
            let n = SEQ.fetch_add(1, Ordering::Relaxed);
            let path =
                std::env::temp_dir().join(format!("dlrpc-sp-{}-{n}.sock", std::process::id()));
            let bridge =
                serve_wire(SocketListener::bind(&WireAddr::Unix(path)).unwrap(), &connector);
            (wire_connector(bridge.bound_addr().clone()), Some(bridge))
        }
    };
    Stand { client, pool, handle, bridge }
}

fn echo() -> impl FnMut(PoolEvent<u8>, ReplySlot<u8>) + Send {
    on_request(|req: u8, slot| slot.send(req))
}

fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(3);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn call_timeout_sees_the_call_fault_points() {
    let _s = serial();
    for carrier in CARRIERS {
        let mut st = stand(AgentModel::Dedicated, carrier, echo);
        let conn = st.client.connect().unwrap();
        assert_eq!(conn.call_timeout(1, Duration::from_secs(5)).unwrap(), 1);
        {
            let _g = fault::install_guarded(1, &[("rpc.call.drop", Trigger::Times(1))]);
            let err = conn.call_timeout(2, Duration::from_secs(5)).unwrap_err();
            assert_eq!(err, RpcError::Timeout, "{carrier:?}: a dropped request is a timeout");
            assert_eq!(fault::fires("rpc.call.drop"), 1);
        }
        {
            let _g = fault::install_guarded(1, &[("rpc.call.overloaded", Trigger::Times(1))]);
            let err = conn.call_timeout(3, Duration::from_secs(5)).unwrap_err();
            assert_eq!(err, RpcError::Overloaded, "{carrier:?}");
        }
        assert_eq!(conn.call_timeout(4, Duration::from_secs(5)).unwrap(), 4, "{carrier:?}");
        assert_eq!(st.pool.served(), 2, "{carrier:?}: the faulted requests never reached an agent");
        st.handle.shutdown();
    }
}

#[test]
fn a_duplicated_call_is_served_twice_and_answered_once() {
    let _s = serial();
    for carrier in CARRIERS {
        for model in [AgentModel::Dedicated, pooled(8)] {
            let mut st = stand(model, carrier, echo);
            let conn = st.client.connect().unwrap();
            {
                let _g = fault::install_guarded(1, &[("rpc.call.duplicate", Trigger::Times(1))]);
                assert_eq!(conn.call(2).unwrap(), 2, "{carrier:?}/{model}: one reply");
            }
            wait_until("both deliveries served", || st.pool.served() == 2);
            assert_eq!(
                conn.call(5).unwrap(),
                5,
                "{carrier:?}/{model}: the second delivery's reply does not leak into the next call"
            );
            assert_eq!(st.pool.served(), 3, "{carrier:?}/{model}");
            st.handle.shutdown();
        }
    }
}

/// A request whose decoder rejects one sentinel value, the way a peer
/// speaking another codec revision would.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Picky(u8);

const UNDECODABLE: u8 = 0xEE;

impl Wire for Picky {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u8(out, self.0)
    }
    fn decode(r: &mut Reader<'_>) -> Result<Picky, WireError> {
        match r.u8()? {
            UNDECODABLE => Err(WireError::Decode("the sentinel does not decode".into())),
            v => Ok(Picky(v)),
        }
    }
}

#[test]
fn a_request_that_fails_to_decode_is_answered_alike_on_both_carriers() {
    let _s = serial();
    for (model, carrier) in [
        (AgentModel::Dedicated, Carrier::InProcess),
        (pooled(8), Carrier::InProcess),
        (AgentModel::Dedicated, Carrier::UnixSocket),
    ] {
        let mut st = stand(model, carrier, || on_request(|req: Picky, slot| slot.send(req.0)));
        let conn = st.client.connect().unwrap();
        let err = conn.call(Picky(UNDECODABLE)).unwrap_err();
        assert_eq!(
            err,
            RpcError::Wire("peer failed to decode the request".into()),
            "{carrier:?}/{model}"
        );
        assert_eq!(st.pool.decode_errors(), 1, "{carrier:?}/{model}: counted once");
        if let Some(bridge) = &st.bridge {
            assert_eq!(bridge.wire_stats().decode_errors(), 0, "the frame itself was sound");
        }
        assert_eq!(st.pool.served(), 0, "{carrier:?}/{model}: the handler never saw it");
        assert_eq!(conn.call(Picky(7)).unwrap(), 7, "{carrier:?}/{model}: the next call succeeds");
        st.handle.shutdown();
    }
}

#[test]
fn call_timeout_goes_through_admission_control() {
    let _s = serial();
    // Queue depth 1 and one worker stuck: the first post occupies the
    // worker, the second fills the queue, the third request must be
    // rejected by admission control — through `call_timeout` as through
    // `call`.
    let model = AgentModel::Pooled {
        workers: 1,
        queue_depth: 1,
        admission_timeout: Duration::from_millis(40),
    };
    let (listener, connector) = fabric::<u8, u8>(model);
    let pool = listener.pool_stats().clone();
    let mut handle = serve(listener, || {
        on_request(|req: u8, slot| {
            if req == 9 {
                thread::sleep(Duration::from_millis(300));
            }
            slot.send(req);
        })
    });
    let conn = connector.connect().unwrap();
    conn.post(9).unwrap();
    thread::sleep(Duration::from_millis(30));
    conn.post(1).unwrap();
    let rejects = pool.rejects();
    let err = conn.call_timeout(2, Duration::from_secs(5)).unwrap_err();
    assert_eq!(err, RpcError::Overloaded, "a full run queue rejects, it does not time out");
    assert_eq!(pool.rejects(), rejects + 1, "and the reject is counted");
    handle.shutdown();
}

#[test]
fn started_calls_overlap_and_their_spans_are_siblings() {
    let _s = serial();
    let (listener, connector) = fabric::<u8, u64>(AgentModel::Dedicated);
    // Each agent takes 100 ms and reports the span its request arrived
    // under.
    let mut handle = serve(listener, || {
        on_request(|_req: u8, slot| {
            thread::sleep(Duration::from_millis(100));
            slot.send(trace::current_ctx().map_or(0, |c| c.span_id));
        })
    });
    let (a, b) = (connector.connect().unwrap(), connector.connect().unwrap());
    let stats = connector.stats().clone();

    let root = trace::span_root(Layer::Host, "scatter");
    let began = Instant::now();
    let pa = a.start(1).unwrap();
    assert_eq!(trace::current_ctx(), Some(root.ctx()), "start leaves the caller's context alone");
    let pb = b.start(2).unwrap();
    assert_eq!(stats.in_flight(), 2, "both calls are out before either is awaited");
    let (seen_a, seen_b) = (pa.wait(None).unwrap(), pb.wait(None).unwrap());
    let took = began.elapsed();
    assert!(took < Duration::from_millis(195), "two 100 ms calls overlapped, took {took:?}");
    assert_eq!(stats.in_flight(), 0);
    assert_eq!(stats.calls(), 2);

    let root_ctx = root.ctx();
    drop(root);
    let spans: Vec<_> = trace::global_ring()
        .snapshot()
        .into_iter()
        .filter(|e| e.layer == Layer::Rpc && e.trace_id == root_ctx.trace_id)
        .collect();
    assert_eq!(spans.len(), 2, "one rpc span per started call: {spans:#?}");
    for s in &spans {
        assert_eq!(s.parent_span_id, root_ctx.span_id, "siblings under the caller's span");
        assert!(s.duration >= Duration::from_millis(100), "the span covers the whole round trip");
    }
    let ids: Vec<u64> = spans.iter().map(|s| s.span_id).collect();
    assert!(ids.contains(&seen_a) && ids.contains(&seen_b), "each agent ran under its call's span");
    handle.shutdown();
}

#[test]
fn abandoned_and_timed_out_calls_release_the_gauge() {
    let _s = serial();
    let (listener, connector) = fabric::<u8, u8>(AgentModel::Dedicated);
    let mut handle = serve(listener, || {
        on_request(|req: u8, slot| {
            thread::sleep(Duration::from_millis(u64::from(req)));
            slot.send(req);
        })
    });
    let conn = connector.connect().unwrap();
    let stats = connector.stats().clone();
    drop(conn.start(1).unwrap());
    assert_eq!(stats.in_flight(), 0, "a dropped pending call is no longer in flight");
    let err = conn.start(200).unwrap().wait(Some(Duration::from_millis(20))).unwrap_err();
    assert_eq!(err, RpcError::Timeout);
    assert_eq!(stats.in_flight(), 0);
    assert_eq!(conn.call(0).unwrap(), 0, "the late reply went nowhere; the next call is clean");
    handle.shutdown();
}

#[test]
fn a_severed_connection_is_one_hangup_under_both_settings() {
    let _s = serial();
    for carrier in CARRIERS {
        for model in [AgentModel::Dedicated, pooled(8)] {
            let mut st = stand(model, carrier, echo);
            let conn = st.client.connect().unwrap();
            assert_eq!(conn.call(1).unwrap(), 1);
            {
                let _g = fault::install_guarded(1, &[("rpc.call.disconnect", Trigger::Times(1))]);
                assert_eq!(conn.call(2).unwrap_err(), RpcError::Disconnected);
            }
            let err = conn.call(3).unwrap_err();
            assert_eq!(err, RpcError::Disconnected, "{carrier:?}/{model}: severed for good");
            drop(conn);
            let deadline = Instant::now() + Duration::from_secs(3);
            while st.pool.hangups() == 0 && Instant::now() < deadline {
                thread::sleep(Duration::from_millis(5));
            }
            st.handle.shutdown();
            assert_eq!(
                st.pool.hangups(),
                1,
                "{carrier:?}/{model}: the sever is the hangup, the drop adds none"
            );
        }
    }
}
