(* One timed iteration of one benchmark workload, printed as a JSON line.

   Usage:
     main.exe WORKLOAD --seed N [--traced] [--domains D] [--work DIR] [--simulated]

   WORKLOAD is printf-interleaved, memcached-dfs, memcached-parallel,
   or calibrate (time the host-speed kernel only);
   --simulated runs memcached-parallel's program on the simulated
   cluster instead, as a cross-check of its totals.

   The process compiles the workload's target and sets it up (the two
   local workloads [local_setups] times, every set-up timed and the last
   one kept; the other programs once), runs it once to
   exhaustion, checks every output against the recorded reference
   totals, and prints one JSON object on stdout.  perfbench/run.py runs
   one process per iteration, so the peak major heap of each run is
   measured in a fresh process and no earlier run can mask it.

   With [--traced] the benchmark's own wrappers around the calls into
   each layer (searcher closures, the POSIX handler closure, Driver.run,
   Parallel.run) record spans in memory; per-call boundaries (select,
   add, handler) aggregate into histograms instead of spans.  The spans are written to [DIR] as a Chrome trace
   at the end, and the per-layer metrics are added to the JSON line.
   Layer self time is span time minus child time.  A reconciliation
   mismatch in the traced run exits with code 2. *)

module J = Obs.Json
module Ex = Engine.Executor

let now = Unix.gettimeofday

let median = function
  | [] -> 0.0
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let num x = J.Num x
let int n = J.Num (float_of_int n)

(* --- spans and per-call histograms ------------------------------------- *)

type span = { sp_name : string; sp_id : int; sp_parent : int; sp_t0 : float; sp_t1 : float }

let spans : span list ref = ref []
let span_stack : int list ref = ref []
let next_span = ref 1

(* [with_span name f] records a span around [f ()] when tracing; the
   enclosing open span is its parent. *)
let traced = ref false

let with_span name f =
  if not !traced then f ()
  else begin
    let id = !next_span in
    incr next_span;
    let parent = match !span_stack with p :: _ -> p | [] -> 0 in
    span_stack := id :: !span_stack;
    let t0 = now () in
    let finish () =
      spans := { sp_name = name; sp_id = id; sp_parent = parent; sp_t0 = t0; sp_t1 = now () } :: !spans;
      span_stack := List.tl !span_stack
    in
    Fun.protect ~finally:finish f
  end

let span_total name =
  List.fold_left (fun acc s -> if s.sp_name = name then acc +. (s.sp_t1 -. s.sp_t0) else acc) 0.0 !spans

(* Root spans: those with no parent.  [unattributed] is the measured
   interval minus the time covered by root spans. *)
let root_total () =
  List.fold_left (fun acc s -> if s.sp_parent = 0 then acc +. (s.sp_t1 -. s.sp_t0) else acc) 0.0 !spans

(* A per-call boundary: call count, total seconds, and log2 buckets of
   nanoseconds (bucket i holds durations in [2^i, 2^(i+1)) ns). *)
type hist = { mutable calls : int; mutable total : float; buckets : int array }

let hist () = { calls = 0; total = 0.0; buckets = Array.make 40 0 }

let hist_add h dt =
  h.calls <- h.calls + 1;
  h.total <- h.total +. dt;
  let ns = int_of_float (dt *. 1e9) in
  let rec lg x i = if x <= 1 || i >= 39 then i else lg (x lsr 1) (i + 1) in
  let b = lg ns 0 in
  h.buckets.(b) <- h.buckets.(b) + 1

let hist_json h =
  J.Obj
    [
      ("calls", int h.calls);
      ("total_s", num h.total);
      ("log2_ns_buckets", J.Arr (Array.to_list (Array.map int h.buckets)));
    ]

let write_chrome_trace path hists =
  let oc = open_out path in
  let t_base = List.fold_left (fun acc s -> min acc s.sp_t0) infinity !spans in
  let ev s =
    J.Obj
      [
        ("name", J.Str s.sp_name);
        ("ph", J.Str "X");
        ("pid", int 1);
        ("tid", int 1);
        ("ts", num ((s.sp_t0 -. t_base) *. 1e6));
        ("dur", num ((s.sp_t1 -. s.sp_t0) *. 1e6));
        ("args", J.Obj [ ("id", int s.sp_id); ("parent", int s.sp_parent) ]);
      ]
  in
  let doc =
    J.Obj
      [
        ("traceEvents", J.Arr (List.rev_map ev !spans));
        ("histograms", J.Obj (List.map (fun (n, h) -> (n, hist_json h)) hists));
      ]
  in
  output_string oc (J.to_string doc);
  close_out oc

(* --- GC: Gc.quick_stat deltas and runtime_events pause time ------------- *)

module Gc_probe = struct
  type t = {
    cursor : Runtime_events.cursor;
    callbacks : Runtime_events.Callbacks.t;
    pause_ns : int64 ref;
    lost : int ref;
  }

  (* A domain's minor collections and major slices: the two phases in
     which its mutator is stopped for the collector.  They do not nest. *)
  let counted = function Runtime_events.EV_MINOR | EV_MAJOR_SLICE -> true | _ -> false

  let create () =
    Runtime_events.start ();
    let open_ = Hashtbl.create 8 in
    let pause_ns = ref 0L and lost = ref 0 in
    let runtime_begin dom ts phase =
      if counted phase then Hashtbl.replace open_ (dom, phase) (Runtime_events.Timestamp.to_int64 ts)
    in
    let runtime_end dom ts phase =
      match Hashtbl.find_opt open_ (dom, phase) with
      | Some b ->
        Hashtbl.remove open_ (dom, phase);
        pause_ns := Int64.add !pause_ns (Int64.sub (Runtime_events.Timestamp.to_int64 ts) b)
      | None -> () (* an end whose begin preceded the first poll *)
    in
    let lost_events _ n = lost := !lost + n in
    let cursor = Runtime_events.create_cursor None in
    let callbacks = Runtime_events.Callbacks.create ~runtime_begin ~runtime_end ~lost_events () in
    (* everything before the run is discarded *)
    ignore (Runtime_events.read_poll cursor callbacks None);
    Hashtbl.reset open_;
    pause_ns := 0L;
    { cursor; callbacks; pause_ns; lost }

  let poll t = ignore (Runtime_events.read_poll t.cursor t.callbacks None)
  let pause_s t = Int64.to_float !(t.pause_ns) /. 1e9
end

let gc_delta (a : Gc.stat) (b : Gc.stat) =
  [
    ("gc.minor_collections", float_of_int (b.minor_collections - a.minor_collections));
    ("gc.major_collections", float_of_int (b.major_collections - a.major_collections));
    ("gc.minor_words", b.minor_words -. a.minor_words);
    ("gc.promoted_words", b.promoted_words -. a.promoted_words);
  ]

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8)) /. 1048576.0

(* --- iteration result ---------------------------------------------------- *)

type result = {
  mutable setup_s : float list;
  mutable compile_s : float list;
  mutable exhaust_s : float;
  mutable cov100_s : float;
  mutable ops : (string * bool) list;  (* operation name, reproduced its reference *)
  mutable totals : (string * J.t) list;
  mutable layers : (string * float) list;
  mutable reconcile : string list;  (* mismatches of the traced run *)
}

let res () =
  {
    setup_s = [];
    compile_s = [];
    exhaust_s = 0.0;
    cov100_s = 0.0;
    ops = [];
    totals = [];
    layers = [];
    reconcile = [];
  }

let op r name ok = r.ops <- (name, ok) :: r.ops
let layer r name v = r.layers <- (name, v) :: r.layers
let reconcile r name a b =
  if a <> b then r.reconcile <- Printf.sprintf "%s: %d <> %d" name a b :: r.reconcile

(* Set-ups per iteration of a local workload: setup_s is the median of
   them all.  The other programs report no setup_s and set up once. *)
let local_setups = 25

(* Time [reps] set-ups; keep the last one. *)
let timed_setups r ~reps setup =
  let last = ref None in
  for _ = 1 to reps do
    let t0 = now () in
    let x, compile_s = setup () in
    r.setup_s <- (now () -. t0) :: r.setup_s;
    r.compile_s <- compile_s :: r.compile_s;
    last := Some x
  done;
  Option.get !last

let compile mk =
  let t0 = now () in
  let p = Lang.Compile.compile_unit (mk ()) in
  (p, now () -. t0)

(* --- solver probes (traced runs) ---------------------------------------- *)

let tiers = Obs.Event.[ Trivial; Range; Sat_cache; Cex_cache; Det_cache; Sat_call ]

let tier_counts snap =
  List.map
    (fun tier ->
      let name = Obs.Event.tier_to_string tier in
      let v =
        match Obs.Metrics.find snap "solver_queries" [ ("tier", name) ] with
        | Some { Obs.Metrics.s_value = Obs.Metrics.Vcounter n; _ } -> n
        | _ -> 0
      in
      (name, v))
    tiers

let hist_value snap name labels =
  match Obs.Metrics.find snap name labels with
  | Some { Obs.Metrics.s_value = Obs.Metrics.Vhistogram h as v; _ } -> Some (h.vsum, h.vcount, v)
  | _ -> None

(* Seconds in solver queries per the [Solver.create ~prof] histograms:
   (all tiers, sat_call tier). *)
let query_seconds snap =
  List.fold_left
    (fun (all, sat) tier ->
      let name = Obs.Event.tier_to_string tier in
      match hist_value snap "latency_ns" [ ("kind", "solver_query"); ("tier", name) ] with
      | Some (s, _, _) -> (all +. (s /. 1e9), if tier = Obs.Event.Sat_call then sat +. (s /. 1e9) else sat)
      | None -> (all, sat))
    (0.0, 0.0) tiers

(* SAT calls by caller, from the trace ring's solver events; the ring
   must have kept every event. *)
let sat_calls_by_kind r sink =
  let trace = Obs.Sink.trace sink in
  if Obs.Trace.dropped trace > 0 then
    r.reconcile <- Printf.sprintf "trace ring dropped %d events" (Obs.Trace.dropped trace) :: r.reconcile;
  let det = ref 0 and branch = ref 0 and other = ref 0 in
  Obs.Trace.iter
    (fun r ->
      match r.Obs.Trace.r_event with
      | Obs.Event.Solver_query { kind; tier = Obs.Event.Sat_call; _ } ->
        if kind = "det" then incr det else if kind = "branch" then incr branch else incr other
      | _ -> ())
    (Obs.Sink.trace sink);
  (!det, !branch, !other)

let trace_capacity = 1 lsl 21

(* Reconciles the solver's tier counters and its trace events against
   its own stats; returns the tier counts and the SAT calls by caller
   (det, branch). *)
let solver_counts r ~sink ~(stats : Smt.Solver.stats) =
  let counts = tier_counts (Obs.Metrics.snapshot (Obs.Sink.metrics sink)) in
  reconcile r "solver tier counts sum to queries" (List.fold_left (fun a (_, v) -> a + v) 0 counts) stats.queries;
  reconcile r "sat_call tier = stats.sat_calls" (List.assoc "sat_call" counts) stats.sat_calls;
  let det, branch, other = sat_calls_by_kind r sink in
  reconcile r "sat calls by caller sum to sat_call tier" (det + branch + other) stats.sat_calls;
  (counts, det, branch)

(* --- local workloads: Engine.Driver.run, as `cloud9 run` does ------------ *)

type local = {
  l_name : string;
  l_unit : unit -> Lang.Ast.comp_unit;
  l_strategy : string;
  l_paths : int;  (* reference exhaustive totals *)
  l_errors : int;
}

let printf_interleaved =
  {
    l_name = "printf-interleaved";
    l_unit = (fun () -> Targets.Printf_target.symbolic_unit ~fmt_len:5);
    l_strategy = "interleaved";
    l_paths = 3581;
    l_errors = 0;
  }

let memcached_unit () = Targets.Memcached_mini.symbolic_packets_unit ~npackets:2 ~pkt_len:6

let memcached_dfs =
  { l_name = "memcached-dfs"; l_unit = memcached_unit; l_strategy = "dfs"; l_paths = 2415; l_errors = 208 }

(* per-call histograms written beside the spans *)
let write_hists : (string * hist) list ref = ref []

let collect_tests = 16
let max_steps = 1_000_000

let run_local (w : local) r ~seed ~gc =
  let sink = if !traced then Some (Obs.Sink.create ~trace_capacity ()) else None in
  let prof_sink = if !traced then Some (Obs.Sink.create ~trace_capacity:1 ()) else None in
  let prof = Option.map Obs.Profile.create prof_sink in
  let program, cfg, searcher, st0 =
    timed_setups r ~reps:local_setups (fun () ->
        let program, compile_s = compile w.l_unit in
        let solver = Smt.Solver.create ?obs:sink ?prof () in
        let cfg =
          Posix.Api.make_config ~solver ~max_steps ~check_div_zero:true
            ~nlines:program.Cvm.Program.nlines ()
        in
        let rng = Random.State.make [| seed |] in
        let searcher = Engine.Searcher.of_name ~rng w.l_strategy in
        let st0 = Posix.Api.initial_state program ~args:[] in
        ((program, cfg, searcher, st0), compile_s))
  in
  (* wrapped closures: the handler (posix layer) and the searcher *)
  let h_handler = hist () and h_select = hist () and h_add = hist () in
  let solver_in_handler = ref 0.0 in
  (* Time the probes themselves take inside Driver.run (profile reads,
     runtime_events polls): it is taken out of the executor's self time. *)
  let probe_s = ref 0.0 in
  let probe f =
    let t0 = now () in
    let x = f () in
    probe_s := !probe_s +. (now () -. t0);
    x
  in
  (* Seconds of answered solver queries so far.  The profile histograms
     change only when a query is answered, so they are read again only
     when the solver's query count has moved since the last read. *)
  let stats = Smt.Solver.stats cfg.Ex.solver in
  let read_n = ref (-1) and read_s = ref 0.0 in
  let solver_seconds () =
    if stats.queries <> !read_n then begin
      read_n := stats.queries;
      read_s :=
        probe (fun () -> fst (query_seconds (Obs.Metrics.snapshot (Obs.Sink.metrics (Option.get prof_sink)))))
    end;
    !read_s
  in
  let cfg =
    if not !traced then cfg
    else
      let inner = cfg.Ex.handler in
      let handler c st ~num ~dst ~args =
        let n0 = stats.queries and q0 = solver_seconds () in
        let t0 = now () in
        let out = inner c st ~num ~dst ~args in
        hist_add h_handler (now () -. t0);
        if stats.queries <> n0 then solver_in_handler := !solver_in_handler +. (solver_seconds () -. q0);
        out
      in
      { cfg with Ex.handler }
  in
  let t_start = now () in
  (* the time line coverage last grew, read from outside the engine *)
  let cov = ref 0 and cov_t = ref t_start in
  let peak_size = ref 0 in
  let select () =
    let c = Ex.coverage_count cfg in
    if c > !cov then begin
      cov := c;
      cov_t := now ()
    end;
    if not !traced then searcher.Engine.Searcher.select ()
    else begin
      if h_select.calls land 4095 = 4095 then Option.iter (fun g -> probe (fun () -> Gc_probe.poll g)) gc;
      peak_size := max !peak_size (searcher.Engine.Searcher.size ());
      let t0 = now () in
      let s = searcher.Engine.Searcher.select () in
      hist_add h_select (now () -. t0);
      s
    end
  in
  let add st =
    if not !traced then searcher.Engine.Searcher.add st
    else begin
      let t0 = now () in
      searcher.Engine.Searcher.add st;
      hist_add h_add (now () -. t0)
    end
  in
  let wrapped = { searcher with Engine.Searcher.select; add } in
  let gc0 = Gc.quick_stat () in
  let d =
    with_span "Driver.run" (fun () -> Engine.Driver.run ~collect_tests cfg wrapped st0)
  in
  let t_end = now () in
  let gc1 = Gc.quick_stat () in
  (* a final coverage gain that no later select saw *)
  if Ex.coverage_count cfg > !cov then cov_t := t_end;
  r.exhaust_s <- t_end -. t_start;
  r.cov100_s <- !cov_t -. t_start;
  (* correctness: exhaustive totals, then every emitted test case *)
  let totals_ok = d.exhausted && d.paths_explored = w.l_paths && d.errors = w.l_errors in
  op r (Printf.sprintf "%s totals %d/%d (reference %d/%d)" w.l_name d.paths_explored d.errors w.l_paths w.l_errors) totals_ok;
  let target = Core.Cloud9.target w.l_name program in
  List.iteri
    (fun i (tc : Engine.Testcase.t) ->
      let ok = Core.Cloud9.replay_test ~max_steps target tc = Some tc.termination in
      op r (Printf.sprintf "%s test %d (%s)" w.l_name i (Engine.Errors.termination_to_string tc.termination)) ok)
    d.tests;
  r.totals <-
    [
      ("paths", int d.paths_explored);
      ("errors", int d.errors);
      ("instructions", int d.instructions);
      ("tests", int (List.length d.tests));
      ("covered_lines", int (Ex.coverage_count cfg));
    ];
  if !traced then begin
    let sink = Option.get sink in
    let span_s = span_total "Driver.run" in
    let counts, det, branch = solver_counts r ~sink ~stats:d.solver_stats in
    List.iter (fun (n, v) -> layer r ("smt.solver." ^ n) (float_of_int v)) counts;
    layer r "smt.solver.queries" (float_of_int d.solver_stats.queries);
    layer r "smt.solver.det_sat_calls" (float_of_int det);
    layer r "smt.solver.branch_sat_calls" (float_of_int branch);
    let query_s, sat_s = query_seconds (Obs.Metrics.snapshot (Obs.Sink.metrics (Option.get prof_sink))) in
    layer r "smt.solver.query_s" query_s;
    layer r "smt.solver.sat_call_s" sat_s;
    layer r "smt.solver.sat_share" (sat_s /. span_s);
    layer r "smt.solver.inc.assumption_solves" (float_of_int d.inc_stats.assumption_solves);
    layer r "smt.solver.inc.group_hits" (float_of_int d.inc_stats.group_hits);
    layer r "smt.solver.inc.group_misses" (float_of_int d.inc_stats.group_misses);
    layer r "engine.searcher.select_s" h_select.total;
    layer r "engine.searcher.add_s" h_add.total;
    layer r "engine.searcher.selects" (float_of_int h_select.calls);
    layer r "engine.searcher.ns_per_select"
      (if h_select.calls > 0 then h_select.total *. 1e9 /. float_of_int h_select.calls else 0.0);
    layer r "engine.searcher.peak_size" (float_of_int !peak_size);
    (* one select per driver step; each step retires one instruction *)
    reconcile r "selects = driver steps" h_select.calls cfg.Ex.stats.Ex.useful_instrs;
    let posix_self = h_handler.total -. !solver_in_handler in
    layer r "posix.handler.calls" (float_of_int h_handler.calls);
    layer r "posix.handler.self_s" posix_self;
    layer r "engine.executor.instrs" (float_of_int cfg.Ex.stats.Ex.useful_instrs);
    layer r "engine.executor.forks" (float_of_int cfg.Ex.stats.Ex.forks);
    layer r "engine.executor.self_s"
      (span_s -. h_select.total -. h_add.total -. query_s -. posix_self -. !probe_s);
    layer r "trace.unattributed_share" ((r.exhaust_s -. root_total ()) /. r.exhaust_s);
    r.layers <- r.layers @ gc_delta gc0 gc1;
    write_hists := [ ("searcher.select", h_select); ("searcher.add", h_add); ("posix.handler", h_handler) ]
  end

(* --- memcached-parallel: Cluster.Parallel on real domains ---------------- *)

let par_paths = 2415
let par_errors = 208

(* In a traced run a systhread on the calling domain drains the
   runtime_events ring this often, so that it never overflows. *)
let poll_period = 0.005

let run_parallel r ~seed ~ndomains ~gc =
  let sink = if !traced then Some (Obs.Sink.create ~trace_capacity ()) else None in
  if !traced then begin
    Smt.Expr.reset_lock_stats ();
    Smt.Expr.set_lock_profiling true
  end
  else Smt.Expr.set_lock_profiling false;
  let program, pcfg, cfgs =
    timed_setups r ~reps:1 (fun () ->
        let program, compile_s = compile memcached_unit in
        let cfgs = Array.init ndomains (fun _ -> Atomic.make None) in
        (* as Core.Cloud9.run_parallel, keeping each worker's engine
           config where the benchmark can read it *)
        let make_worker i =
          let obs = Option.map (fun s -> Obs.Sink.buffered s i) sink in
          let prof = Option.map Obs.Profile.create obs in
          let solver = Smt.Solver.create ?obs ?prof () in
          let cfg =
            Posix.Api.make_config ~solver ?obs ~max_steps ~nlines:program.Cvm.Program.nlines ()
          in
          let make_root () = Posix.Api.initial_state program ~args:[] in
          Atomic.set cfgs.(i) (Some cfg);
          Cluster.Worker.create ?prof ~id:i ~cfg ~make_root ~seed ()
        in
        let pcfg = Cluster.Parallel.default_config ?obs:sink ~ndomains ~make_worker () in
        ((program, pcfg, cfgs), compile_s))
  in
  let coverable = List.length (Cvm.Program.covered_lines program) in
  let stop = Atomic.make false in
  let poller g () =
    while not (Atomic.get stop) do
      Unix.sleepf poll_period;
      Gc_probe.poll g
    done
  in
  let th = Option.map (fun g -> Thread.create (poller g) ()) gc in
  let t_start = now () in
  let pr =
    Fun.protect
      ~finally:(fun () ->
        Atomic.set stop true;
        Option.iter Thread.join th;
        Smt.Expr.set_lock_profiling false)
      (fun () ->
        with_span "Parallel.run" (fun () -> Cluster.Parallel.run ~coverable_lines:coverable pcfg))
  in
  let t_end = now () in
  r.exhaust_s <- t_end -. t_start;
  let ok = pr.total_paths = par_paths && pr.total_errors = par_errors in
  op r
    (Printf.sprintf "memcached-parallel %d domains totals %d/%d (reference %d/%d)" ndomains pr.total_paths
       pr.total_errors par_paths par_errors)
    ok;
  r.totals <-
    [
      ("paths", int pr.total_paths);
      ("errors", int pr.total_errors);
      ("useful_instrs", int pr.useful_instrs);
      ("replay_instrs", int pr.replay_instrs);
      ("transfers", int pr.transfers);
      ("steals", int pr.steals);
      ("ndomains", int ndomains);
      ( "worker_balance",
        num
          (let us = List.map snd pr.per_worker_useful in
           let mx = List.fold_left max 0 us and mn = List.fold_left min max_int us in
           if mx = 0 || us = [] then 0.0 else float_of_int mn /. float_of_int mx) );
    ];
  if !traced then begin
    let sink = Option.get sink in
    let snap = Obs.Metrics.snapshot (Obs.Sink.metrics sink) in
    ignore (solver_counts r ~sink ~stats:pr.solver_stats);
    let hsum kind = match hist_value snap "latency_ns" [ ("kind", kind) ] with Some (s, _, _) -> s /. 1e9 | None -> 0.0 in
    layer r "cluster.parallel.mailbox_wait_s" (hsum "mailbox_wait");
    layer r "cluster.parallel.job_replay_s" (hsum "job_replay");
    layer r "cluster.parallel.quiesce_s" (hsum "quiesce_round");
    layer r "cluster.parallel.steal_rtt_p50_ms"
      (match hist_value snap "latency_ns" [ ("kind", "steal_rtt") ] with
      | Some (_, n, v) when n > 0 -> Option.value ~default:0.0 (Obs.Metrics.percentile v 0.5) /. 1e6
      | _ -> 0.0);
    layer r "cluster.parallel.transfers" (float_of_int pr.transfers);
    layer r "cluster.parallel.steals" (float_of_int pr.steals);
    layer r "cluster.parallel.replay_share"
      (float_of_int pr.replay_instrs /. float_of_int (max 1 pr.useful_instrs));
    let instrs = Array.fold_left (fun a c -> match Atomic.get c with Some c -> a + c.Ex.stats.Ex.useful_instrs | None -> a) 0 cfgs in
    reconcile r "worker useful instructions sum to the run's" instrs pr.useful_instrs
  end

(* The cross-check: the simulated cluster (Cluster.Driver) explores the
   same program to the same totals. *)
let run_simulated r ~seed =
  let program = timed_setups r ~reps:1 (fun () -> compile memcached_unit) in
  let options = { Core.Cloud9.default_cluster_options with nworkers = 2; cseed = seed } in
  let t0 = now () in
  let d = Core.Cloud9.run_cluster ~options (Core.Cloud9.target "memcached-parallel" program) in
  r.exhaust_s <- now () -. t0;
  op r
    (Printf.sprintf "simulated cluster totals %d/%d (reference %d/%d)" d.total_paths d.total_errors par_paths
       par_errors)
    (d.reached_goal && d.total_paths = par_paths && d.total_errors = par_errors);
  r.totals <- [ ("paths", int d.total_paths); ("errors", int d.total_errors) ]

(* --- host-speed calibration ---------------------------------------------- *)

(* A fixed kernel of stdlib code only, so no change to the libraries can
   change its time: hash-table and balanced-map inserts and lookups over
   a few megabytes, and a float sort.  It allocates, promotes and misses
   the cache much as symbolic execution does, and so slows down with the
   host as the workloads do.  perfbench/run.py times it in its own
   process between iterations and scales the iterations' times by it. *)
module Int_map = Map.Make (Int)

let calibrate () =
  let t0 = now () in
  let st = Random.State.make [| 7 |] in
  let h = Hashtbl.create 16 in
  let m = ref Int_map.empty in
  for i = 0 to 24_999 do
    let k = Random.State.bits st in
    Hashtbl.replace h k i;
    m := Int_map.add (k land 0xfffff) [ i; k ] !m
  done;
  let acc = ref 0 in
  for _ = 1 to 3 do
    Hashtbl.iter
      (fun k v -> match Int_map.find_opt (k land 0xfffff) !m with Some (x :: _) -> acc := !acc + x + v | _ -> ())
      h
  done;
  let a = Array.init 40_000 (fun _ -> Random.State.float st 1.0) in
  Array.sort compare a;
  ignore (Sys.opaque_identity (!acc, a));
  now () -. t0

(* --- main ---------------------------------------------------------------- *)

let workloads = [ "printf-interleaved"; "memcached-dfs"; "memcached-parallel"; "calibrate" ]

let () =
  let workload = ref "" and seed = ref 1 and work = ref "." and ndomains = ref 2 in
  let simulated = ref false in
  let spec =
    [
      ("--seed", Arg.Set_int seed, "N workload seed (searcher and worker RNGs)");
      ("--traced", Arg.Set traced, " record spans and per-layer metrics");
      ("--domains", Arg.Set_int ndomains, "D worker domains (memcached-parallel)");
      ("--work", Arg.Set_string work, "DIR scratch directory for traces");
      ("--simulated", Arg.Set simulated, " memcached-parallel: the simulated-cluster cross-check");
    ]
  in
  Arg.parse spec (fun w -> workload := w) ("main.exe WORKLOAD [options]; workloads: " ^ String.concat ", " workloads);
  if not (List.mem !workload workloads) then begin
    prerr_endline ("unknown workload: " ^ !workload);
    exit 1
  end;
  if !workload = "calibrate" then begin
    (* the median of three, so that one slow moment of the host does not
       count as its speed *)
    let xs = List.init 3 (fun _ -> calibrate ()) in
    print_endline (J.to_string (J.Obj [ ("calibrate_s", num (median xs)) ]));
    exit 0
  end;
  let gc = if !traced then Some (Gc_probe.create ()) else None in
  let r = res () in
  let seed = !seed in
  (match !workload with
  | "printf-interleaved" -> run_local printf_interleaved r ~seed ~gc
  | "memcached-dfs" -> run_local memcached_dfs r ~seed ~gc
  | "memcached-parallel" when !simulated -> run_simulated r ~seed
  | _ -> run_parallel r ~seed ~ndomains:!ndomains ~gc);
  let peak = peak_heap_mb () in
  (match gc with
  | Some g ->
    Gc_probe.poll g;
    layer r "gc.pause_s" (Gc_probe.pause_s g);
    reconcile r "runtime_events lost events" !(g.Gc_probe.lost) 0
  | None -> ());
  if !traced then begin
    layer r "lang.compile_s" (median r.compile_s);
    write_chrome_trace
      (Filename.concat !work (Printf.sprintf "trace-%s-%d.json" !workload seed))
      !write_hists
  end;
  let failures = List.filter_map (fun (n, ok) -> if ok then None else Some (J.Str n)) r.ops in
  let line =
    J.Obj
      [
        ("workload", J.Str !workload);
        ("seed", int seed);
        ("traced", J.Bool !traced);
        ("setup_s", J.Arr (List.rev_map num r.setup_s));
        ("compile_s", J.Arr (List.rev_map num r.compile_s));
        ("exhaust_s", num r.exhaust_s);
        ("cov100_s", num r.cov100_s);
        ("peak_heap_mb", num peak);
        ("attempted", int (List.length r.ops));
        ("failed", int (List.length failures));
        ("failures", J.Arr failures);
        ("totals", J.Obj r.totals);
        ("layers", J.Obj (List.rev_map (fun (n, v) -> (n, num v)) r.layers));
        ("reconcile", J.Arr (List.map (fun s -> J.Str s) r.reconcile));
      ]
  in
  print_endline (J.to_string line);
  if r.reconcile <> [] then begin
    List.iter (fun s -> prerr_endline ("reconciliation mismatch: " ^ s)) r.reconcile;
    exit 2
  end
