//! The split-phase call (`start` / `wait`) and the wrappers over it.
//!
//! Regression: `call_timeout` on the in-process transport used to send on
//! the raw queue — past admission control (no `pool.rejects`, `Timeout`
//! where `call` says `Overloaded`) and past every `rpc.call.*` fault
//! point. It is `start(..)?.wait(Some(t))` now, so whatever `call` sees,
//! `call_timeout` sees.
//!
//! `obs::fault` is process-global, which is why these tests have a binary
//! of their own and take `SERIAL`.

use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

use dlrpc::{fabric, serve, AgentModel, PoolEvent, ReplySlot, RpcError};
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

#[test]
fn call_timeout_sees_the_call_fault_points() {
    let _s = serial();
    let (listener, connector) = fabric::<u8, u8>(AgentModel::Dedicated);
    let mut handle = serve(listener, || on_request(|req: u8, slot| slot.send(req)));
    let conn = connector.connect().unwrap();
    assert_eq!(conn.call_timeout(1, Duration::from_secs(5)).unwrap(), 1);
    {
        let _g = fault::install_guarded(1, &[("rpc.call.drop", Trigger::Times(1))]);
        let err = conn.call_timeout(2, Duration::from_secs(5)).unwrap_err();
        assert_eq!(err, RpcError::Timeout, "a dropped request is a timeout to its caller");
        assert_eq!(fault::fires("rpc.call.drop"), 1);
    }
    {
        let _g = fault::install_guarded(1, &[("rpc.call.overloaded", Trigger::Times(1))]);
        assert_eq!(conn.call_timeout(3, Duration::from_secs(5)).unwrap_err(), RpcError::Overloaded);
    }
    assert_eq!(conn.call_timeout(4, Duration::from_secs(5)).unwrap(), 4, "the connection is fine");
    handle.shutdown();
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
    let pooled = AgentModel::Pooled {
        workers: 1,
        queue_depth: 8,
        admission_timeout: Duration::from_secs(1),
    };
    for model in [AgentModel::Dedicated, pooled] {
        let (listener, connector) = fabric::<u8, u8>(model);
        let pool = listener.pool_stats().clone();
        let mut handle = serve(listener, || on_request(|req: u8, slot| slot.send(req)));
        let conn = connector.connect().unwrap();
        assert_eq!(conn.call(1).unwrap(), 1);
        {
            let _g = fault::install_guarded(1, &[("rpc.call.disconnect", Trigger::Times(1))]);
            assert_eq!(conn.call(2).unwrap_err(), RpcError::Disconnected);
        }
        assert_eq!(conn.call(3).unwrap_err(), RpcError::Disconnected, "{model}: severed for good");
        drop(conn);
        let deadline = Instant::now() + Duration::from_secs(3);
        while pool.hangups() == 0 && Instant::now() < deadline {
            thread::sleep(Duration::from_millis(5));
        }
        handle.shutdown();
        assert_eq!(pool.hangups(), 1, "{model}: the sever is the hangup, the drop adds none");
    }
}
