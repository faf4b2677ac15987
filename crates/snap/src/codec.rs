//! [`EngineState`] ↔ [`Json`] — lossless, canonical, schema'd by hand.
//!
//! Every field of every state struct is written explicitly; unknown or
//! missing fields are decode errors, not silently defaulted, so a
//! snapshot from a different schema fails loudly instead of restoring
//! garbage. Numbers use the codec's lossless paths (`u64` exact, `f64`
//! shortest-round-trip), which is what makes the canonical rendering —
//! and therefore [`state_hash`] — stable across processes.

use crate::json::Json;
use mtb_mpisim::collective::{EpochKind, EpochState, SyncEpochsState};
use mtb_mpisim::comm::{CommRankState, Handle, Message};
use mtb_mpisim::engine::{BuilderSnapshot, EngineState, RankState};
use mtb_mpisim::program::TracePhase;
use mtb_oskernel::process::ProcRunState;
use mtb_oskernel::{CtxAddr, CtxSnapshot, MachineState, Pcb};
use mtb_smtsim::inst::{Inst, InstClass, StreamSpec};
use mtb_smtsim::model::{ThreadId, Workload, WorkloadProfile};
use mtb_smtsim::priority::HwPriority;
use mtb_smtsim::state::{
    CacheState, CoreState, CycleCoreState, CycleCtxState, MesoCoreState, MesoCtxState,
    PredictorState, StreamGenState, UnitsState,
};
use mtb_smtsim::stats::CtxStats;
use mtb_trace::paraver::CommEvent;
use mtb_trace::{Interval, ProcState, Timeline};

// ---------------------------------------------------------------- encode

fn u(n: u64) -> Json {
    Json::UInt(n)
}

fn us(n: usize) -> Json {
    Json::UInt(n as u64)
}

fn f(x: f64) -> Json {
    Json::Float(x)
}

fn s(t: &str) -> Json {
    Json::Str(t.to_string())
}

fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn arr<T>(items: &[T], enc: impl Fn(&T) -> Json) -> Json {
    Json::Arr(items.iter().map(enc).collect())
}

fn opt<T>(o: &Option<T>, enc: impl Fn(&T) -> Json) -> Json {
    match o {
        None => Json::Null,
        Some(v) => enc(v),
    }
}

fn enc_proc_state(p: ProcState) -> Json {
    s(match p {
        ProcState::Init => "init",
        ProcState::Compute => "compute",
        ProcState::Sync => "sync",
        ProcState::Comm => "comm",
        ProcState::Interrupt => "interrupt",
        ProcState::Final => "final",
        ProcState::Idle => "idle",
    })
}

fn enc_trace_phase(p: TracePhase) -> Json {
    s(match p {
        TracePhase::Init => "init",
        TracePhase::Body => "body",
        TracePhase::Final => "final",
    })
}

fn enc_stream_spec(sp: &StreamSpec) -> Json {
    obj(vec![
        ("fx", u(sp.fx as u64)),
        ("fp", u(sp.fp as u64)),
        ("ls", u(sp.ls as u64)),
        ("br", u(sp.br as u64)),
        ("dep_dist", u(sp.dep_dist as u64)),
        ("working_set", u(sp.working_set)),
        ("code_kb", u(sp.code_kb as u64)),
        ("seed", u(sp.seed)),
    ])
}

fn enc_workload(w: &Workload) -> Json {
    obj(vec![
        ("name", s(&w.name)),
        ("stream", enc_stream_spec(&w.stream)),
        ("ipc_st", f(w.profile.ipc_st)),
        ("unit_pressure", f(w.profile.unit_pressure)),
        ("mem_intensity", f(w.profile.mem_intensity)),
    ])
}

fn enc_streamgen(g: &StreamGenState) -> Json {
    obj(vec![
        ("spec", enc_stream_spec(&g.spec)),
        ("rng", u(g.rng)),
        ("cursor", u(g.cursor)),
        ("pc", u(g.pc)),
        ("produced", u(g.produced)),
    ])
}

fn enc_predictor(p: &PredictorState) -> Json {
    obj(vec![
        ("table", arr(&p.table, |&b| u(b as u64))),
        ("history", u(p.history)),
        ("predictions", u(p.predictions)),
        ("mispredictions", u(p.mispredictions)),
    ])
}

fn enc_cache(c: &CacheState) -> Json {
    obj(vec![
        (
            "ways",
            arr(&c.ways, |w| {
                opt(w, |&(tag, owner)| Json::Arr(vec![u(tag), u(owner as u64)]))
            }),
        ),
        ("stamps", arr(&c.stamps, |&t| u(t))),
        ("tick", u(c.tick)),
        ("hits", u(c.hits)),
        ("misses", u(c.misses)),
        ("cross_evictions", u(c.cross_evictions)),
    ])
}

fn enc_units(un: &UnitsState) -> Json {
    obj(vec![
        (
            "issued_this_cycle",
            arr(&un.issued_this_cycle, |&b| u(b as u64)),
        ),
        ("current_cycle", u(un.current_cycle)),
        ("total_issued", arr(&un.total_issued, |&n| u(n))),
        ("conflicts", arr(&un.conflicts, |&n| u(n))),
    ])
}

fn enc_inst(i: &Inst) -> Json {
    obj(vec![
        ("class", us(i.class.index())),
        ("addr", opt(&i.addr, |&a| u(a))),
        ("dep", u(i.dep as u64)),
        ("taken", Json::Bool(i.taken)),
        ("pc", u(i.pc)),
    ])
}

fn enc_ctx_stats(st: &CtxStats) -> Json {
    obj(vec![
        ("slots_owned", u(st.slots_owned)),
        ("slots_used", u(st.slots_used)),
        ("slots_stolen", u(st.slots_stolen)),
        ("decoded", u(st.decoded)),
        ("retired", u(st.retired)),
        ("stall_dep", u(st.stall_dep)),
        ("stall_unit", u(st.stall_unit)),
        ("l1_hits", u(st.l1_hits)),
        ("l2_hits", u(st.l2_hits)),
        ("mem_accesses", u(st.mem_accesses)),
        ("br_mispredicts", u(st.br_mispredicts)),
        ("l1i_misses", u(st.l1i_misses)),
    ])
}

fn enc_cycle_ctx(c: &CycleCtxState) -> Json {
    obj(vec![
        ("priority", u(c.priority as u64)),
        (
            "workload",
            opt(&c.workload, |(name, gen)| {
                obj(vec![("name", s(name)), ("gen", enc_streamgen(gen))])
            }),
        ),
        (
            "dispatch",
            arr(&c.dispatch, |(inst, seq)| {
                Json::Arr(vec![enc_inst(inst), u(*seq)])
            }),
        ),
        ("completion", arr(&c.completion, |&t| u(t))),
        ("seq", u(c.seq)),
        ("pending", arr(&c.pending, |&t| u(t))),
        ("stats", enc_ctx_stats(&c.stats)),
        (
            "rate_anchor",
            Json::Arr(vec![u(c.rate_anchor.0), u(c.rate_anchor.1)]),
        ),
        ("predictor", enc_predictor(&c.predictor)),
        ("fetch_stall_until", u(c.fetch_stall_until)),
    ])
}

fn enc_meso_ctx(c: &MesoCtxState) -> Json {
    obj(vec![
        ("priority", u(c.priority as u64)),
        ("workload", opt(&c.workload, enc_workload)),
        ("carry", f(c.carry)),
        ("anchor_cycle", u(c.anchor_cycle)),
        ("anchor_retired", u(c.anchor_retired)),
        ("retired", u(c.retired)),
    ])
}

fn enc_core(c: &CoreState) -> Json {
    match c {
        CoreState::Meso(m) => obj(vec![
            ("fidelity", s("meso")),
            ("cycle", u(m.cycle)),
            ("ctx", arr(&m.ctx, enc_meso_ctx)),
        ]),
        CoreState::Cycle(c) => obj(vec![
            ("fidelity", s("cycle")),
            ("cycle", u(c.cycle)),
            ("ctx", arr(&c.ctx, enc_cycle_ctx)),
            ("units", enc_units(&c.units)),
            ("l1d", enc_cache(&c.l1d)),
            ("l1i", enc_cache(&c.l1i)),
            ("l2", enc_cache(&c.l2)),
        ]),
    }
}

fn enc_ctx_addr(a: &CtxAddr) -> Json {
    obj(vec![("core", us(a.core)), ("thread", us(a.thread.index()))])
}

fn enc_pcb(p: &Pcb) -> Json {
    obj(vec![
        ("pid", us(p.pid)),
        ("name", s(&p.name)),
        ("affinity", enc_ctx_addr(&p.affinity)),
        ("hmt_priority", u(p.hmt_priority.value() as u64)),
        (
            "state",
            s(match p.state {
                ProcRunState::Running => "running",
                ProcRunState::Blocked => "blocked",
                ProcRunState::Exited => "exited",
            }),
        ),
        ("retired", u(p.retired)),
        ("interrupt_cycles", u(p.interrupt_cycles)),
        ("busy_cycles", u(p.busy_cycles)),
        ("spin_cycles", u(p.spin_cycles)),
    ])
}

fn enc_ctx_snapshot(c: &CtxSnapshot) -> Json {
    obj(vec![
        ("installed", opt(&c.installed, enc_workload)),
        ("in_handler", Json::Bool(c.in_handler)),
        ("counting", Json::Bool(c.counting)),
    ])
}

fn enc_machine(m: &MachineState) -> Json {
    obj(vec![
        ("now", u(m.now)),
        ("cores", arr(&m.cores, enc_core)),
        ("procs", arr(&m.procs, enc_pcb)),
        (
            "ctx_owner",
            arr(&m.ctx_owner, |pair| {
                Json::Arr(pair.iter().map(|o| opt(o, |&pid| us(pid))).collect())
            }),
        ),
        (
            "ctx_state",
            arr(&m.ctx_state, |pair| {
                Json::Arr(pair.iter().map(enc_ctx_snapshot).collect())
            }),
        ),
    ])
}

fn enc_rank_state(r: &RankState) -> Json {
    match *r {
        RankState::Ready => obj(vec![("k", s("ready"))]),
        RankState::Computing { target } => obj(vec![("k", s("computing")), ("target", u(target))]),
        RankState::CommBusy { until } => obj(vec![("k", s("comm_busy")), ("until", u(until))]),
        RankState::WaitRecv { hidx } => obj(vec![("k", s("wait_recv")), ("hidx", us(hidx))]),
        RankState::WaitAll => obj(vec![("k", s("wait_all"))]),
        RankState::InEpoch { idx } => obj(vec![("k", s("in_epoch")), ("idx", us(idx))]),
        RankState::Done => obj(vec![("k", s("done"))]),
    }
}

fn enc_message(m: &Message) -> Json {
    obj(vec![
        ("from", us(m.from)),
        ("to", us(m.to)),
        ("tag", u(m.tag as u64)),
        ("bytes", u(m.bytes)),
        ("arrival", u(m.arrival)),
    ])
}

fn enc_comm_rank(c: &CommRankState) -> Json {
    obj(vec![
        ("unexpected", arr(&c.unexpected, enc_message)),
        (
            "pending_recvs",
            arr(&c.pending_recvs, |&(from, tag, hidx)| {
                Json::Arr(vec![us(from), u(tag as u64), us(hidx)])
            }),
        ),
        (
            "handles",
            arr(&c.handles, |h| opt(&h.complete_at, |&t| u(t))),
        ),
    ])
}

fn enc_epoch_kind(k: &EpochKind) -> Json {
    match *k {
        EpochKind::AllToAll => obj(vec![("k", s("all_to_all"))]),
        EpochKind::FromRoot { root } => obj(vec![("k", s("from_root")), ("root", us(root))]),
        EpochKind::ToRoot { root } => obj(vec![("k", s("to_root")), ("root", us(root))]),
    }
}

fn enc_epoch(e: &EpochState) -> Json {
    obj(vec![
        ("kind", enc_epoch_kind(&e.kind)),
        ("arrived", arr(&e.arrived, |&r| us(r))),
        ("arrival_times", arr(&e.arrival_times, |&t| u(t))),
        ("last_arrival", u(e.last_arrival)),
        ("cost", u(e.cost)),
        ("release_at", opt(&e.release_at, |&t| u(t))),
    ])
}

fn enc_interval(iv: &Interval) -> Json {
    obj(vec![
        ("start", u(iv.start)),
        ("end", u(iv.end)),
        ("state", enc_proc_state(iv.state)),
    ])
}

fn enc_timeline(t: &Timeline) -> Json {
    obj(vec![
        ("pid", us(t.pid)),
        ("label", s(&t.label)),
        ("intervals", arr(t.intervals(), enc_interval)),
    ])
}

fn enc_builder(b: &BuilderSnapshot) -> Json {
    obj(vec![
        ("pid", us(b.pid)),
        ("label", s(&b.label)),
        ("intervals", arr(&b.intervals, enc_interval)),
        (
            "current",
            opt(&b.current, |&(since, state)| {
                Json::Arr(vec![u(since), enc_proc_state(state)])
            }),
        ),
    ])
}

fn enc_comm_event(c: &CommEvent) -> Json {
    obj(vec![
        ("from", us(c.from)),
        ("to", us(c.to)),
        ("bytes", u(c.bytes)),
        ("send_time", u(c.send_time)),
        ("recv_time", u(c.recv_time)),
    ])
}

/// Encode a full engine state to its canonical JSON form.
pub fn encode_engine_state(e: &EngineState) -> Json {
    obj(vec![
        ("machine", enc_machine(&e.machine)),
        ("events", u(e.events)),
        ("pc", arr(&e.pc, |&p| us(p))),
        ("rank_states", arr(&e.rank_states, enc_rank_state)),
        ("ready", arr(&e.ready, |&r| us(r))),
        ("phase", arr(&e.phase, |&p| enc_trace_phase(p))),
        ("comm", arr(&e.comm, enc_comm_rank)),
        (
            "epochs",
            obj(vec![
                ("epochs", arr(&e.epochs.epochs, enc_epoch)),
                ("next", arr(&e.epochs.next, |&n| us(n))),
            ]),
        ),
        ("builders", arr(&e.builders, |b| opt(b, enc_builder))),
        ("finished", arr(&e.finished, |t| opt(t, enc_timeline))),
        ("state_since", arr(&e.state_since, |&t| u(t))),
        ("win_compute", arr(&e.win_compute, |&t| u(t))),
        ("win_sync", arr(&e.win_sync, |&t| u(t))),
        ("comm_log", arr(&e.comm_log, enc_comm_event)),
    ])
}

/// The canonical content hash of an engine state: FNV-1a over the
/// rendered canonical JSON. Two engines in bit-identical states hash
/// equal across processes; this is what `mtb bisect-drift` compares.
pub fn state_hash(e: &EngineState) -> u64 {
    crate::fnv1a(encode_engine_state(e).render().as_bytes())
}

// ---------------------------------------------------------------- decode

type R<T> = Result<T, String>;

fn field<'a>(j: &'a Json, k: &str) -> R<&'a Json> {
    j.get(k).ok_or_else(|| format!("missing field {k:?}"))
}

fn dec_u64(j: &Json) -> R<u64> {
    j.as_u64()
        .ok_or_else(|| format!("expected integer, got {j:?}"))
}

fn dec_usize(j: &Json) -> R<usize> {
    Ok(dec_u64(j)? as usize)
}

fn dec_u32(j: &Json) -> R<u32> {
    u32::try_from(dec_u64(j)?).map_err(|e| e.to_string())
}

fn dec_u8(j: &Json) -> R<u8> {
    u8::try_from(dec_u64(j)?).map_err(|e| e.to_string())
}

fn dec_f64(j: &Json) -> R<f64> {
    j.as_f64()
        .ok_or_else(|| format!("expected number, got {j:?}"))
}

fn dec_bool(j: &Json) -> R<bool> {
    match j {
        Json::Bool(b) => Ok(*b),
        other => Err(format!("expected bool, got {other:?}")),
    }
}

fn dec_string(j: &Json) -> R<String> {
    j.as_str()
        .map(str::to_string)
        .ok_or_else(|| format!("expected string, got {j:?}"))
}

fn dec_vec<T>(j: &Json, dec: impl Fn(&Json) -> R<T>) -> R<Vec<T>> {
    j.as_arr()
        .ok_or_else(|| format!("expected array, got {j:?}"))?
        .iter()
        .map(dec)
        .collect()
}

fn dec_opt<T>(j: &Json, dec: impl Fn(&Json) -> R<T>) -> R<Option<T>> {
    match j {
        Json::Null => Ok(None),
        other => Ok(Some(dec(other)?)),
    }
}

fn dec_pair<T, U>(j: &Json, da: impl Fn(&Json) -> R<T>, db: impl Fn(&Json) -> R<U>) -> R<(T, U)> {
    let a = j
        .as_arr()
        .ok_or_else(|| format!("expected pair, got {j:?}"))?;
    if a.len() != 2 {
        return Err(format!("expected 2-element pair, got {}", a.len()));
    }
    Ok((da(&a[0])?, db(&a[1])?))
}

fn dec_fixed<T: std::fmt::Debug, const N: usize>(
    j: &Json,
    dec: impl Fn(&Json) -> R<T>,
) -> R<[T; N]> {
    let v = dec_vec(j, dec)?;
    let len = v.len();
    v.try_into()
        .map_err(|_| format!("expected {N}-element array, got {len}"))
}

fn dec_proc_state(j: &Json) -> R<ProcState> {
    match j.as_str() {
        Some("init") => Ok(ProcState::Init),
        Some("compute") => Ok(ProcState::Compute),
        Some("sync") => Ok(ProcState::Sync),
        Some("comm") => Ok(ProcState::Comm),
        Some("interrupt") => Ok(ProcState::Interrupt),
        Some("final") => Ok(ProcState::Final),
        Some("idle") => Ok(ProcState::Idle),
        other => Err(format!("unknown ProcState {other:?}")),
    }
}

fn dec_trace_phase(j: &Json) -> R<TracePhase> {
    match j.as_str() {
        Some("init") => Ok(TracePhase::Init),
        Some("body") => Ok(TracePhase::Body),
        Some("final") => Ok(TracePhase::Final),
        other => Err(format!("unknown TracePhase {other:?}")),
    }
}

fn dec_stream_spec(j: &Json) -> R<StreamSpec> {
    Ok(StreamSpec {
        fx: dec_u32(field(j, "fx")?)?,
        fp: dec_u32(field(j, "fp")?)?,
        ls: dec_u32(field(j, "ls")?)?,
        br: dec_u32(field(j, "br")?)?,
        dep_dist: dec_u32(field(j, "dep_dist")?)?,
        working_set: dec_u64(field(j, "working_set")?)?,
        code_kb: dec_u32(field(j, "code_kb")?)?,
        seed: dec_u64(field(j, "seed")?)?,
    })
}

fn dec_workload(j: &Json) -> R<Workload> {
    Ok(Workload {
        name: dec_string(field(j, "name")?)?.into(),
        stream: dec_stream_spec(field(j, "stream")?)?,
        profile: WorkloadProfile {
            ipc_st: dec_f64(field(j, "ipc_st")?)?,
            unit_pressure: dec_f64(field(j, "unit_pressure")?)?,
            mem_intensity: dec_f64(field(j, "mem_intensity")?)?,
        },
    })
}

fn dec_streamgen(j: &Json) -> R<StreamGenState> {
    Ok(StreamGenState {
        spec: dec_stream_spec(field(j, "spec")?)?,
        rng: dec_u64(field(j, "rng")?)?,
        cursor: dec_u64(field(j, "cursor")?)?,
        pc: dec_u64(field(j, "pc")?)?,
        produced: dec_u64(field(j, "produced")?)?,
    })
}

fn dec_predictor(j: &Json) -> R<PredictorState> {
    Ok(PredictorState {
        table: dec_vec(field(j, "table")?, dec_u8)?,
        history: dec_u64(field(j, "history")?)?,
        predictions: dec_u64(field(j, "predictions")?)?,
        mispredictions: dec_u64(field(j, "mispredictions")?)?,
    })
}

fn dec_cache(j: &Json) -> R<CacheState> {
    Ok(CacheState {
        ways: dec_vec(field(j, "ways")?, |w| {
            dec_opt(w, |p| dec_pair(p, dec_u64, dec_u8))
        })?,
        stamps: dec_vec(field(j, "stamps")?, dec_u64)?,
        tick: dec_u64(field(j, "tick")?)?,
        hits: dec_u64(field(j, "hits")?)?,
        misses: dec_u64(field(j, "misses")?)?,
        cross_evictions: dec_u64(field(j, "cross_evictions")?)?,
    })
}

fn dec_units(j: &Json) -> R<UnitsState> {
    Ok(UnitsState {
        issued_this_cycle: dec_fixed(field(j, "issued_this_cycle")?, dec_u8)?,
        current_cycle: dec_u64(field(j, "current_cycle")?)?,
        total_issued: dec_fixed(field(j, "total_issued")?, dec_u64)?,
        conflicts: dec_fixed(field(j, "conflicts")?, dec_u64)?,
    })
}

fn dec_inst(j: &Json) -> R<Inst> {
    let class_idx = dec_usize(field(j, "class")?)?;
    let class = *InstClass::ALL
        .get(class_idx)
        .ok_or_else(|| format!("instruction class index {class_idx} out of range"))?;
    Ok(Inst {
        class,
        addr: dec_opt(field(j, "addr")?, dec_u64)?,
        dep: dec_u32(field(j, "dep")?)?,
        taken: dec_bool(field(j, "taken")?)?,
        pc: dec_u64(field(j, "pc")?)?,
    })
}

fn dec_ctx_stats(j: &Json) -> R<CtxStats> {
    Ok(CtxStats {
        slots_owned: dec_u64(field(j, "slots_owned")?)?,
        slots_used: dec_u64(field(j, "slots_used")?)?,
        slots_stolen: dec_u64(field(j, "slots_stolen")?)?,
        decoded: dec_u64(field(j, "decoded")?)?,
        retired: dec_u64(field(j, "retired")?)?,
        stall_dep: dec_u64(field(j, "stall_dep")?)?,
        stall_unit: dec_u64(field(j, "stall_unit")?)?,
        l1_hits: dec_u64(field(j, "l1_hits")?)?,
        l2_hits: dec_u64(field(j, "l2_hits")?)?,
        mem_accesses: dec_u64(field(j, "mem_accesses")?)?,
        br_mispredicts: dec_u64(field(j, "br_mispredicts")?)?,
        l1i_misses: dec_u64(field(j, "l1i_misses")?)?,
    })
}

fn dec_cycle_ctx(j: &Json) -> R<CycleCtxState> {
    Ok(CycleCtxState {
        priority: dec_u8(field(j, "priority")?)?,
        workload: dec_opt(field(j, "workload")?, |w| {
            Ok((
                dec_string(field(w, "name")?)?,
                dec_streamgen(field(w, "gen")?)?,
            ))
        })?,
        dispatch: dec_vec(field(j, "dispatch")?, |p| dec_pair(p, dec_inst, dec_u64))?,
        completion: dec_vec(field(j, "completion")?, dec_u64)?,
        seq: dec_u64(field(j, "seq")?)?,
        pending: dec_vec(field(j, "pending")?, dec_u64)?,
        stats: dec_ctx_stats(field(j, "stats")?)?,
        rate_anchor: dec_pair(field(j, "rate_anchor")?, dec_u64, dec_u64)?,
        predictor: dec_predictor(field(j, "predictor")?)?,
        fetch_stall_until: dec_u64(field(j, "fetch_stall_until")?)?,
    })
}

fn dec_meso_ctx(j: &Json) -> R<MesoCtxState> {
    Ok(MesoCtxState {
        priority: dec_u8(field(j, "priority")?)?,
        workload: dec_opt(field(j, "workload")?, dec_workload)?,
        carry: dec_f64(field(j, "carry")?)?,
        anchor_cycle: dec_u64(field(j, "anchor_cycle")?)?,
        anchor_retired: dec_u64(field(j, "anchor_retired")?)?,
        retired: dec_u64(field(j, "retired")?)?,
    })
}

fn dec_core(j: &Json) -> R<CoreState> {
    match field(j, "fidelity")?.as_str() {
        Some("meso") => Ok(CoreState::Meso(Box::new(MesoCoreState {
            cycle: dec_u64(field(j, "cycle")?)?,
            ctx: dec_fixed(field(j, "ctx")?, dec_meso_ctx)?,
        }))),
        Some("cycle") => Ok(CoreState::Cycle(Box::new(CycleCoreState {
            cycle: dec_u64(field(j, "cycle")?)?,
            ctx: dec_fixed(field(j, "ctx")?, dec_cycle_ctx)?,
            units: dec_units(field(j, "units")?)?,
            l1d: dec_cache(field(j, "l1d")?)?,
            l1i: dec_cache(field(j, "l1i")?)?,
            l2: dec_cache(field(j, "l2")?)?,
        }))),
        other => Err(format!("unknown core fidelity {other:?}")),
    }
}

fn dec_ctx_addr(j: &Json) -> R<CtxAddr> {
    let thread = dec_usize(field(j, "thread")?)?;
    if thread > 1 {
        return Err(format!("thread index {thread} out of range for 2-way SMT"));
    }
    Ok(CtxAddr {
        core: dec_usize(field(j, "core")?)?,
        thread: ThreadId::from_index(thread),
    })
}

fn dec_priority(j: &Json) -> R<HwPriority> {
    let v = dec_u8(j)?;
    HwPriority::new(v).ok_or_else(|| format!("priority {v} out of range 0..=7"))
}

fn dec_pcb(j: &Json) -> R<Pcb> {
    Ok(Pcb {
        pid: dec_usize(field(j, "pid")?)?,
        name: dec_string(field(j, "name")?)?,
        affinity: dec_ctx_addr(field(j, "affinity")?)?,
        hmt_priority: dec_priority(field(j, "hmt_priority")?)?,
        state: match field(j, "state")?.as_str() {
            Some("running") => ProcRunState::Running,
            Some("blocked") => ProcRunState::Blocked,
            Some("exited") => ProcRunState::Exited,
            other => return Err(format!("unknown ProcRunState {other:?}")),
        },
        retired: dec_u64(field(j, "retired")?)?,
        interrupt_cycles: dec_u64(field(j, "interrupt_cycles")?)?,
        busy_cycles: dec_u64(field(j, "busy_cycles")?)?,
        spin_cycles: dec_u64(field(j, "spin_cycles")?)?,
    })
}

fn dec_ctx_snapshot(j: &Json) -> R<CtxSnapshot> {
    Ok(CtxSnapshot {
        installed: dec_opt(field(j, "installed")?, dec_workload)?,
        in_handler: dec_bool(field(j, "in_handler")?)?,
        counting: dec_bool(field(j, "counting")?)?,
    })
}

fn dec_machine(j: &Json) -> R<MachineState> {
    Ok(MachineState {
        now: dec_u64(field(j, "now")?)?,
        cores: dec_vec(field(j, "cores")?, dec_core)?,
        procs: dec_vec(field(j, "procs")?, dec_pcb)?,
        ctx_owner: dec_vec(field(j, "ctx_owner")?, |p| {
            dec_fixed(p, |o| dec_opt(o, dec_usize))
        })?,
        ctx_state: dec_vec(field(j, "ctx_state")?, |p| dec_fixed(p, dec_ctx_snapshot))?,
    })
}

fn dec_rank_state(j: &Json) -> R<RankState> {
    match field(j, "k")?.as_str() {
        Some("ready") => Ok(RankState::Ready),
        Some("computing") => Ok(RankState::Computing {
            target: dec_u64(field(j, "target")?)?,
        }),
        Some("comm_busy") => Ok(RankState::CommBusy {
            until: dec_u64(field(j, "until")?)?,
        }),
        Some("wait_recv") => Ok(RankState::WaitRecv {
            hidx: dec_usize(field(j, "hidx")?)?,
        }),
        Some("wait_all") => Ok(RankState::WaitAll),
        Some("in_epoch") => Ok(RankState::InEpoch {
            idx: dec_usize(field(j, "idx")?)?,
        }),
        Some("done") => Ok(RankState::Done),
        other => Err(format!("unknown RankState {other:?}")),
    }
}

fn dec_message(j: &Json) -> R<Message> {
    Ok(Message {
        from: dec_usize(field(j, "from")?)?,
        to: dec_usize(field(j, "to")?)?,
        tag: dec_u32(field(j, "tag")?)?,
        bytes: dec_u64(field(j, "bytes")?)?,
        arrival: dec_u64(field(j, "arrival")?)?,
    })
}

fn dec_comm_rank(j: &Json) -> R<CommRankState> {
    Ok(CommRankState {
        unexpected: dec_vec(field(j, "unexpected")?, dec_message)?,
        pending_recvs: dec_vec(field(j, "pending_recvs")?, |t| {
            let a = t
                .as_arr()
                .ok_or_else(|| format!("expected triple, got {t:?}"))?;
            if a.len() != 3 {
                return Err(format!("expected 3-element triple, got {}", a.len()));
            }
            Ok((dec_usize(&a[0])?, dec_u32(&a[1])?, dec_usize(&a[2])?))
        })?,
        handles: dec_vec(field(j, "handles")?, |h| {
            Ok(Handle {
                complete_at: dec_opt(h, dec_u64)?,
            })
        })?,
    })
}

fn dec_epoch_kind(j: &Json) -> R<EpochKind> {
    match field(j, "k")?.as_str() {
        Some("all_to_all") => Ok(EpochKind::AllToAll),
        Some("from_root") => Ok(EpochKind::FromRoot {
            root: dec_usize(field(j, "root")?)?,
        }),
        Some("to_root") => Ok(EpochKind::ToRoot {
            root: dec_usize(field(j, "root")?)?,
        }),
        other => Err(format!("unknown EpochKind {other:?}")),
    }
}

fn dec_epoch(j: &Json) -> R<EpochState> {
    Ok(EpochState {
        kind: dec_epoch_kind(field(j, "kind")?)?,
        arrived: dec_vec(field(j, "arrived")?, dec_usize)?,
        arrival_times: dec_vec(field(j, "arrival_times")?, dec_u64)?,
        last_arrival: dec_u64(field(j, "last_arrival")?)?,
        cost: dec_u64(field(j, "cost")?)?,
        release_at: dec_opt(field(j, "release_at")?, dec_u64)?,
    })
}

fn dec_interval(j: &Json) -> R<Interval> {
    Ok(Interval {
        start: dec_u64(field(j, "start")?)?,
        end: dec_u64(field(j, "end")?)?,
        state: dec_proc_state(field(j, "state")?)?,
    })
}

fn dec_timeline(j: &Json) -> R<Timeline> {
    Timeline::from_parts(
        dec_usize(field(j, "pid")?)?,
        dec_string(field(j, "label")?)?,
        dec_vec(field(j, "intervals")?, dec_interval)?,
    )
}

fn dec_builder(j: &Json) -> R<BuilderSnapshot> {
    Ok(BuilderSnapshot {
        pid: dec_usize(field(j, "pid")?)?,
        label: dec_string(field(j, "label")?)?,
        intervals: dec_vec(field(j, "intervals")?, dec_interval)?,
        current: dec_opt(field(j, "current")?, |p| {
            dec_pair(p, dec_u64, dec_proc_state)
        })?,
    })
}

fn dec_comm_event(j: &Json) -> R<CommEvent> {
    Ok(CommEvent {
        from: dec_usize(field(j, "from")?)?,
        to: dec_usize(field(j, "to")?)?,
        bytes: dec_u64(field(j, "bytes")?)?,
        send_time: dec_u64(field(j, "send_time")?)?,
        recv_time: dec_u64(field(j, "recv_time")?)?,
    })
}

/// Decode a canonical JSON document back into an [`EngineState`].
pub fn decode_engine_state(j: &Json) -> R<EngineState> {
    let epochs = field(j, "epochs")?;
    Ok(EngineState {
        machine: dec_machine(field(j, "machine")?)?,
        events: dec_u64(field(j, "events")?)?,
        pc: dec_vec(field(j, "pc")?, dec_usize)?,
        rank_states: dec_vec(field(j, "rank_states")?, dec_rank_state)?,
        ready: dec_vec(field(j, "ready")?, dec_usize)?,
        phase: dec_vec(field(j, "phase")?, dec_trace_phase)?,
        comm: dec_vec(field(j, "comm")?, dec_comm_rank)?,
        epochs: SyncEpochsState {
            epochs: dec_vec(field(epochs, "epochs")?, dec_epoch)?,
            next: dec_vec(field(epochs, "next")?, dec_usize)?,
        },
        builders: dec_vec(field(j, "builders")?, |b| dec_opt(b, dec_builder))?,
        finished: dec_vec(field(j, "finished")?, |t| dec_opt(t, dec_timeline))?,
        state_since: dec_vec(field(j, "state_since")?, dec_u64)?,
        win_compute: dec_vec(field(j, "win_compute")?, dec_u64)?,
        win_sync: dec_vec(field(j, "win_sync")?, dec_u64)?,
        comm_log: dec_vec(field(j, "comm_log")?, dec_comm_event)?,
    })
}
