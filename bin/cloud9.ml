(* The cloud9 command-line interface.

     cloud9 list                         enumerate targets and harnesses
     cloud9 table4                       print the Table 4 inventory
     cloud9 run TARGET [-v HARNESS] ...  run a symbolic test, locally or
                                         on a simulated cluster (-w N)
     cloud9 serve --state FILE ...       campaign daemon: JSONL control
                                         plane, checkpoint/restore

   Examples:
     cloud9 run curl
     cloud9 run memcached -v udp-hang --max-steps 20000
     cloud9 run printf -v sym-4 -w 12
     cloud9 serve --state st.json --control cmds.jsonl --events ev.jsonl *)

open Cmdliner
module C = Core.Cloud9

(* Integer flags that must be strictly positive (worker counts, budgets,
   domain counts) share one Arg converter over {!Service.Validate}, so
   the CLI and the daemon's control plane reject with the same message —
   and the unit tests exercise the exact rejection. *)
let pos_int ~flag =
  let parse s =
    match int_of_string_opt s with
    | None -> Error (`Msg (Printf.sprintf "%s: expected an integer (got %S)" flag s))
    | Some v -> (
      match Service.Validate.positive_int ~flag v with
      | Ok v -> Ok v
      | Error m -> Error (`Msg m))
  in
  Arg.conv (parse, Format.pp_print_int)

let non_neg_int ~flag =
  let parse s =
    match int_of_string_opt s with
    | None -> Error (`Msg (Printf.sprintf "%s: expected an integer (got %S)" flag s))
    | Some v -> (
      match Service.Validate.non_negative_int ~flag v with
      | Ok v -> Ok v
      | Error m -> Error (`Msg m))
  in
  Arg.conv (parse, Format.pp_print_int)

let list_cmd =
  let run () =
    List.iter
      (fun e ->
        Printf.printf "%-12s %-28s %s\n" e.Core.Registry.rname e.Core.Registry.rkind
          (String.concat ", " (List.map fst e.Core.Registry.variants)))
      Core.Registry.entries
  in
  Cmd.v (Cmd.info "list" ~doc:"List testing targets and their harnesses")
    Term.(const run $ const ())

let table4_cmd =
  let run () =
    Printf.printf "%-12s %-28s %10s %8s\n" "System" "Type of Software" "IR instrs" "stmts";
    List.iter
      (fun (name, kind, instrs, lines) ->
        Printf.printf "%-12s %-28s %10d %8d\n" name kind instrs lines)
      (Core.Registry.table4 ())
  in
  Cmd.v (Cmd.info "table4" ~doc:"Print the target inventory (paper Table 4)")
    Term.(const run $ const ())

let target_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"TARGET" ~doc:"Registry target name")

let variant_arg =
  Arg.(value & opt (some string) None & info [ "v"; "variant" ] ~docv:"HARNESS" ~doc:"Harness variant")

let workers_arg =
  Arg.(
    value
    & opt (pos_int ~flag:"--workers") 1
    & info [ "w"; "workers" ] ~docv:"N" ~doc:"Worker count (1 = local engine)")

let parallel_arg =
  Arg.(
    value
    & opt (some (pos_int ~flag:"--parallel")) None
    & info [ "p"; "parallel" ] ~docv:"N"
        ~doc:
          "Run on $(docv) real OCaml domains (true multicore) instead of the virtual-time \
           simulation; explores to exhaustion")

let strategy_arg =
  Arg.(
    value
    & opt string "interleaved"
    & info [ "s"; "strategy" ] ~docv:"NAME"
        ~doc:("Search strategy: " ^ String.concat ", " Engine.Searcher.names))

let max_steps_arg =
  Arg.(
    value
    & opt (pos_int ~flag:"--max-steps") 1_000_000
    & info [ "max-steps" ] ~docv:"K" ~doc:"Per-path instruction cap (hang detector)")

let max_paths_arg =
  Arg.(value & opt (some int) None & info [ "paths" ] ~docv:"N" ~doc:"Stop after N completed paths")

let coverage_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "coverage" ] ~docv:"F" ~doc:"Stop at this line-coverage fraction")

let tests_arg =
  Arg.(value & opt int 16 & info [ "tests" ] ~docv:"N" ~doc:"Test cases to materialize")

let speed_arg =
  Arg.(
    value
    & opt (pos_int ~flag:"--speed") 2000
    & info [ "speed" ] ~docv:"I" ~doc:"Cluster mode: instructions per worker per tick")

(* a crash spec is WORKER@TICK, e.g. --crash 2@100,5@200 *)
let crash_conv =
  let parse s =
    match String.split_on_char '@' s with
    | [ w; t ] -> (
      match (int_of_string_opt w, int_of_string_opt t) with
      | Some w, Some t when w >= 0 && t >= 0 -> Ok (w, t)
      | _ -> Error (`Msg (Printf.sprintf "bad crash spec %S (expected WORKER@TICK)" s)))
    | _ -> Error (`Msg (Printf.sprintf "bad crash spec %S (expected WORKER@TICK)" s))
  in
  let print fmt (w, t) = Format.fprintf fmt "%d@%d" w t in
  Arg.conv (parse, print)

let crash_arg =
  Arg.(
    value
    & opt (list crash_conv) []
    & info [ "crash" ] ~docv:"W@T,.."
        ~doc:"Cluster mode: crash worker $(i,W) at tick $(i,T) (comma-separated list)")

let rejoin_arg =
  Arg.(
    value & opt int 0
    & info [ "rejoin" ] ~docv:"D"
        ~doc:"Cluster mode: crashed workers rejoin after $(i,D) ticks (0 = never)")

let msg_loss_arg =
  Arg.(
    value & opt float 0.0
    & info [ "msg-loss" ] ~docv:"P"
        ~doc:"Cluster mode: drop each cluster message with probability $(i,P)")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write a Chrome trace_event JSON timeline of the run to $(docv) (load in \
           chrome://tracing or ui.perfetto.dev)")

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:"Write run metrics as JSON lines to $(docv) (summarize with $(b,cloud9 report))")

let write_obs_artifacts obs ~trace ~metrics =
  match obs with
  | None -> ()
  | Some sink ->
    let with_out path f =
      let oc = open_out path in
      Fun.protect ~finally:(fun () -> close_out oc) (fun () -> f oc)
    in
    Option.iter
      (fun path ->
        with_out path (Obs.Sink.write_chrome_trace sink);
        Printf.printf "trace: %s\n" path)
      trace;
    Option.iter
      (fun path ->
        with_out path (Obs.Sink.write_metrics_jsonl sink);
        Printf.printf "metrics: %s\n" path)
      metrics

let run_local ?obs target options =
  let report = C.run_local ?obs ~options target in
  Format.printf "%a" C.pp_report report;
  let st = report.C.solver_stats in
  Format.printf "solver: %d queries, %d SAT calls, %d cache hits, %d model-probe hits@."
    st.Smt.Solver.queries st.Smt.Solver.sat_calls st.Smt.Solver.cache_hits
    st.Smt.Solver.cex_hits;
  let inc = report.C.inc_stats in
  if inc.Smt.Solver.assumption_solves > 0 then
    Format.printf
      "incremental: %d assumption solves, %d group hits / %d misses, %d retirements@."
      inc.Smt.Solver.assumption_solves inc.Smt.Solver.group_hits inc.Smt.Solver.group_misses
      inc.Smt.Solver.retirements

(* The --crash/--rejoin/--msg-loss plan, validated against the worker
   count of either cluster mode (ticks are virtual ticks with --workers,
   coordinator ticks of ~1 ms with --parallel). *)
let fault_plan ~nworkers crashes rejoin msg_loss =
  let plan =
    Cluster.Faultplan.create
      ~crashes:
        (List.map
           (fun (w, t) ->
             Cluster.Faultplan.crash
               ?rejoin_after:(if rejoin > 0 then Some rejoin else None)
               w ~at_tick:t)
           crashes)
      ~drop_prob:msg_loss ()
  in
  match Cluster.Faultplan.validate plan ~nworkers with
  | Ok () -> plan
  | Error m ->
    Printf.eprintf "cloud9: %s\n" m;
    exit 1

(* Both cluster modes report the same record. *)
let print_outcome ~header fault_plan (r : Cluster.Outcome.t) =
  let module O = Cluster.Outcome in
  Printf.printf "%s, %d paths (%d errors), %.1f%% coverage\n" header r.O.total_paths
    r.O.total_errors (100.0 *. r.O.final_coverage);
  Printf.printf
    "work: %d useful + %d replay instructions, %d jobs transferred (%d steals), %d broken \
     replays\n"
    r.O.useful_instrs r.O.replay_instrs r.O.transfers r.O.steals r.O.broken_replays;
  if not (Cluster.Faultplan.is_faultless fault_plan) then
    Printf.printf
      "faults: %d crashes, %d jobs recovered, %d retransmits, %d recovery replay instructions\n"
      r.O.crashes r.O.recovered_jobs r.O.retransmits r.O.recovery_replay_instrs;
  let st = r.O.solver_stats in
  Printf.printf "solver: %d queries, %d SAT calls, %d cache hits, %d model-probe hits\n"
    st.Smt.Solver.queries st.Smt.Solver.sat_calls st.Smt.Solver.cache_hits
    st.Smt.Solver.cex_hits

let run_cluster ?obs target nworkers speed goal max_steps fault_plan =
  let options =
    {
      C.default_cluster_options with
      C.nworkers;
      speed;
      cluster_goal = goal;
      cworker_max_steps = Some max_steps;
      fault_plan;
    }
  in
  let r = C.run_cluster ?obs ~options target in
  let ticks = r.Cluster.Outcome.ticks in
  print_outcome fault_plan r
    ~header:(Printf.sprintf "cluster: %d workers, %d virtual ticks" nworkers ticks)

let run_parallel ?obs target ndomains max_steps fault_plan =
  let options =
    { C.default_cluster_options with C.cworker_max_steps = Some max_steps; fault_plan }
  in
  let r = C.run_parallel ?obs ~ndomains ~options target in
  print_outcome fault_plan r ~header:(Printf.sprintf "parallel: %d domains" ndomains)

let run_cmd =
  let run name variant workers parallel strategy max_steps max_paths coverage tests speed
      crashes rejoin msg_loss trace metrics =
    match Core.Registry.resolve ~name ~variant with
    | None ->
      Printf.eprintf "unknown target %s%s (try: cloud9 list)\n" name
        (match variant with Some v -> "/" ^ v | None -> "");
      exit 1
    | Some target ->
      let obs =
        if trace <> None || metrics <> None then Some (Obs.Sink.create ()) else None
      in
      (match parallel with
      | Some ndomains ->
        (* the pos_int converter already rejected n < 1 with a proper
           Cmdliner error, so no silent fallthrough remains here *)
        run_parallel ?obs target ndomains max_steps
          (fault_plan ~nworkers:ndomains crashes rejoin msg_loss)
      | None ->
      if workers <= 1 then begin
        let goal =
          match (max_paths, coverage) with
          | Some p, _ -> Engine.Driver.Paths p
          | None, Some f -> Engine.Driver.Coverage f
          | None, None -> Engine.Driver.Exhaust
        in
        run_local ?obs target
          {
            C.default_options with
            C.strategy;
            max_steps = Some max_steps;
            collect_tests = tests;
            goal;
          }
      end
      else begin
        let goal =
          match coverage with
          | Some f -> Cluster.Driver.Coverage_target f
          | None -> Cluster.Driver.Exhaust
        in
        run_cluster ?obs target workers speed goal max_steps
          (fault_plan ~nworkers:workers crashes rejoin msg_loss)
      end);
      write_obs_artifacts obs ~trace ~metrics
  in
  Cmd.v (Cmd.info "run" ~doc:"Run a symbolic test on a target")
    Term.(
      const run $ target_arg $ variant_arg $ workers_arg $ parallel_arg $ strategy_arg
      $ max_steps_arg $ max_paths_arg $ coverage_arg $ tests_arg $ speed_arg $ crash_arg
      $ rejoin_arg $ msg_loss_arg $ trace_arg $ metrics_arg)

(* Total file read for the report/top readers: a missing, unreadable or
   empty file is an [Error], never an uncaught exception. *)
let read_file path =
  match open_in_bin path with
  | exception Sys_error msg -> Error msg
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        match really_input_string ic (in_channel_length ic) with
        | "" -> Error (Printf.sprintf "%s: empty file" path)
        | text -> Ok text
        | exception End_of_file -> Error (Printf.sprintf "%s: truncated read" path))

let read_json path =
  match read_file path with
  | Error e -> Error e
  | Ok text -> (
    match Obs.Json.parse (String.trim text) with
    | Ok v -> Ok v
    | Error e -> Error (Printf.sprintf "%s: %s" path e))

let report_cmd =
  let metrics_file_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"METRICS"
          ~doc:
            "Metrics JSONL file written by cloud9 run --metrics (or, with $(b,--diff), the \
             baseline BENCH artifact)")
  in
  let diff_file_arg =
    Arg.(
      value
      & pos 1 (some string) None
      & info [] ~docv:"NEW" ~doc:"With $(b,--diff): the new BENCH artifact to compare")
  in
  let profile_arg =
    Arg.(
      value & flag
      & info [ "profile" ]
          ~doc:
            "Also print the wall-clock profile: p50/p90/p99 latency table over every \
             latency_ns histogram (mailbox waits, steal round-trips, job replays, solver \
             queries by tier, shard lock waits, obs flushes) and the most contended locks")
  in
  let diff_arg =
    Arg.(
      value & flag
      & info [ "diff" ]
          ~doc:
            "Regression check: structurally compare two BENCH_*.json artifacts and exit \
             non-zero if a gate flipped or a deterministic metric moved beyond tolerance")
  in
  let run_summary path profile =
    match read_file path with
    | Error msg ->
      Printf.eprintf "cloud9 report: %s\n" msg;
      exit 1
    | Ok text -> (
      match Obs.Report.parse_jsonl text with
      | Ok snap ->
        print_string (Obs.Report.render_string snap);
        if profile then begin
          print_newline ();
          print_string (Obs.Report.render_profile_string snap)
        end
      | Error msg ->
        Printf.eprintf "cloud9 report: %s: %s\n" path msg;
        exit 1)
  in
  let run_diff base_path new_path =
    match (read_json base_path, read_json new_path) with
    | Error msg, _ | _, Error msg ->
      Printf.eprintf "cloud9 report --diff: %s\n" msg;
      exit 1
    | Ok base, Ok cur ->
      let o = Obs.Bench_diff.compare base cur in
      print_string (Obs.Bench_diff.render o);
      if not (Obs.Bench_diff.ok o) then exit 1
  in
  let run path second profile diff =
    match (diff, second) with
    | true, Some new_path -> run_diff path new_path
    | true, None ->
      Printf.eprintf "cloud9 report --diff: expected two artifacts (BASE NEW)\n";
      exit 1
    | false, Some _ ->
      Printf.eprintf "cloud9 report: unexpected second argument (did you mean --diff?)\n";
      exit 1
    | false, None -> run_summary path profile
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Summarize a metrics JSONL dump, or compare two BENCH artifacts with $(b,--diff)")
    Term.(const run $ metrics_file_arg $ diff_file_arg $ profile_arg $ diff_arg)

(* --- cloud9 top --------------------------------------------------------- *)

let top_cmd =
  let status_file_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"STATUS" ~doc:"Status file written by cloud9 serve --status")
  in
  let interval_arg =
    Arg.(
      value & opt float 1.0
      & info [ "interval"; "n" ] ~docv:"S" ~doc:"Seconds between refreshes")
  in
  let once_arg =
    Arg.(value & flag & info [ "once" ] ~doc:"Render one frame and exit (no screen control)")
  in
  let module J = Obs.Json in
  let str field row = Option.bind (J.member field row) J.to_str in
  let num field row = Option.bind (J.member field row) J.to_float in
  let pnum field row = Option.bind (J.member "progress" row) (num field) in
  let render doc =
    let buf = Buffer.create 1024 in
    let granted = Option.value ~default:0.0 (num "granted_slices" doc) in
    let campaigns = Option.value ~default:[] (Option.bind (J.member "campaigns" doc) J.to_list) in
    Buffer.add_string buf
      (Printf.sprintf "cloud9 top — %d campaign(s), %.0f slices granted\n\n"
         (List.length campaigns) granted);
    Buffer.add_string buf
      (Printf.sprintf "%-14s %-9s %-9s %6s %9s %8s %6s %7s %7s %6s\n" "NAME" "STATUS" "HEALTH"
         "COV%" "VEL/SLICE" "FRONTIER" "DEPTH" "REPLAY%" "SOLVER" "ETA");
    List.iter
      (fun row ->
        let s field = Option.value ~default:"-" (str field row) in
        let f ?(scale = 1.0) field =
          match num field row with Some v -> v *. scale | None -> 0.0
        in
        let eta =
          match pnum "eta_slices" row with
          | Some v -> Printf.sprintf "%.0f" v
          | None -> "?" (* below the confidence floor: refuse to guess *)
        in
        let p ?(scale = 1.0) field =
          match pnum field row with Some v -> v *. scale | None -> 0.0
        in
        Buffer.add_string buf
          (Printf.sprintf "%-14s %-9s %-9s %6.1f %9.4f %8.0f %6.1f %7.1f %7.3f %6s\n" (s "name")
             (s "status") (s "health")
             (f ~scale:100.0 "coverage")
             (p "velocity") (f "frontier") (p "depth_mean")
             (p ~scale:100.0 "replay_share")
             (p "solver_rate") eta))
      campaigns;
    Buffer.contents buf
  in
  let run path interval once =
    if once then (
      match read_json path with
      | Error msg ->
        Printf.eprintf "cloud9 top: %s\n" msg;
        exit 1
      | Ok doc -> print_string (render doc))
    else
      (* live mode: clear + home each frame; a missing or torn file is a
         transient (the daemon rewrites atomically), keep polling *)
      let rec loop () =
        (match read_json path with
        | Ok doc ->
          print_string "\027[2J\027[H";
          print_string (render doc)
        | Error msg -> Printf.printf "\027[2J\027[Hcloud9 top: waiting for status (%s)\n" msg);
        flush stdout;
        Unix.sleepf interval;
        loop ()
      in
      loop ()
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Live campaign monitor: poll the daemon's status file and render per-campaign \
          health, coverage velocity, frontier shape and ETA")
    Term.(const run $ status_file_arg $ interval_arg $ once_arg)

let serve_cmd =
  let state_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "state" ] ~docv:"FILE"
          ~doc:"Snapshot file: checkpointed to atomically, restored from when present")
  in
  let control_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "control" ] ~docv:"FILE"
          ~doc:
            "JSONL command file or pipe (submit/status/pause/resume/cancel/checkpoint/\
             shutdown), polled for complete lines")
  in
  let events_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "events" ] ~docv:"FILE" ~doc:"Append JSONL event responses to $(docv)")
  in
  let slice_arg =
    Arg.(
      value
      & opt (pos_int ~flag:"--slice") 20_000
      & info [ "slice" ] ~docv:"I"
          ~doc:"Per-slice instruction budget (the fair-scheduling quantum)")
  in
  let checkpoint_every_arg =
    Arg.(
      value
      & opt (non_neg_int ~flag:"--checkpoint-every") 4
      & info [ "checkpoint-every" ] ~docv:"N"
          ~doc:"Checkpoint after every $(docv) slices (0 = only on demand and shutdown)")
  in
  let poll_arg =
    Arg.(
      value & opt float 0.05
      & info [ "poll" ] ~docv:"S" ~doc:"Seconds between control-plane polls when idle")
  in
  let idle_exit_arg =
    Arg.(
      value & flag
      & info [ "idle-exit" ]
          ~doc:"Exit (with a final checkpoint) once no campaign is runnable — batch mode")
  in
  let status_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "status" ] ~docv:"FILE"
          ~doc:
            "Telemetry: atomically rewrite a JSON status document (health, coverage \
             velocity, ETA per campaign) to $(docv); read it with $(b,cloud9 top)")
  in
  let prom_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "prom" ] ~docv:"FILE"
          ~doc:"Telemetry: also write a Prometheus text exposition of the metrics registry")
  in
  let status_every_arg =
    Arg.(
      value
      & opt (pos_int ~flag:"--status-every") 1
      & info [ "status-every" ] ~docv:"N" ~doc:"Telemetry: rewrite status every $(docv) slices")
  in
  let stall_arg =
    Arg.(
      value
      & opt (pos_int ~flag:"--stall-slices") Service.Telemetry.default_config.stall_slices
      & info [ "stall-slices" ] ~docv:"K"
          ~doc:"Telemetry: mark a campaign stalled after $(docv) slices without new coverage")
  in
  let run state control events slice checkpoint_every poll idle_exit metrics status prom
      status_every stall_slices =
    let obs =
      if metrics <> None || prom <> None then Some (Obs.Sink.create ()) else None
    in
    let telemetry =
      if status = None && prom = None then None
      else
        Some
          {
            Service.Telemetry.default_config with
            status_file = status;
            prom_file = prom;
            cadence_slices = status_every;
            stall_slices;
          }
    in
    let cfg =
      {
        Service.Daemon.state_file = state;
        control_file = control;
        events_file = events;
        slice_instrs = slice;
        checkpoint_every;
        obs;
        telemetry;
      }
    in
    match Service.Daemon.create cfg with
    | Error m ->
      Printf.eprintf "cloud9 serve: %s\n" m;
      exit 1
    | Ok daemon ->
      Service.Daemon.run ~poll_s:poll ~idle_exit daemon;
      write_obs_artifacts obs ~trace:None ~metrics
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the campaign service: a persistent, checkpointable, multi-tenant testing \
          daemon driven by a JSONL control plane")
    Term.(
      const run $ state_arg $ control_arg $ events_arg $ slice_arg $ checkpoint_every_arg
      $ poll_arg $ idle_exit_arg $ metrics_arg $ status_arg $ prom_arg $ status_every_arg
      $ stall_arg)

let () =
  let info =
    Cmd.info "cloud9" ~version:"1.0"
      ~doc:"Parallel symbolic execution for automated real-world software testing"
  in
  exit (Cmd.eval (Cmd.group info [ list_cmd; table4_cmd; run_cmd; report_cmd; top_cmd; serve_cmd ]))
