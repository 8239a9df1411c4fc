(* Fault-tolerance tests (DESIGN.md "Failure semantics").

   The headline property is differential exactness: a run whose fault
   plan crashes workers mid-run (one permanently, one rejoining) and
   drops 5% of all messages must still exhaust the execution tree with
   exactly the fault-free path and error totals — no subtree lost, none
   double-counted — while the recovery cost surfaces in the new result
   counters.  The unit tests pin down the ledger's lease lifecycle
   (release-on-report, retransmit backoff, sent-out subtraction) and the
   fault plan's determinism. *)

module CD = Cluster.Driver
module O = Cluster.Outcome
module FP = Cluster.Faultplan
module Ledger = Cluster.Ledger
module Path = Engine.Path

let make_worker program i =
  let solver = Smt.Solver.create () in
  let cfg =
    Posix.Api.make_config ~solver ~max_steps:2_000_000 ~nlines:program.Cvm.Program.nlines ()
  in
  let make_root () = Posix.Api.initial_state program ~args:[] in
  Cluster.Worker.create ~id:i ~cfg ~make_root ~seed:42 ()

let run ?(faults = FP.none) ?(nworkers = 8) ?(speed = 50) program =
  let cfg =
    {
      (CD.default_config ~faults ~nworkers ~make_worker:(make_worker program)
         ~coverable_lines:(List.length (Cvm.Program.covered_lines program))
         ())
      with
      CD.speed = (fun _ -> speed);
      status_interval = 5;
      latency = 1;
      max_ticks = 500_000;
    }
  in
  CD.run cfg

(* --- differential exactness --------------------------------------------------------- *)

(* The acceptance scenario: schedule the crashes from the fault-free
   run's tick count so both land in the thick of the exploration. *)
let differential name program () =
  let free = run program in
  Alcotest.(check bool) (name ^ ": fault-free run exhausts") true free.O.reached_goal;
  let plan =
    FP.create
      ~crashes:
        [
          FP.crash 2 ~at_tick:(max 1 (free.O.ticks / 3));
          FP.crash 5 ~at_tick:(max 2 (free.O.ticks / 2)) ~rejoin_after:60;
        ]
      ~drop_prob:0.05 ~seed:9 ()
  in
  let faulty = run ~faults:plan program in
  Alcotest.(check bool) (name ^ ": faulty run exhausts") true faulty.O.reached_goal;
  Alcotest.(check int) (name ^ ": same total paths") free.O.total_paths faulty.O.total_paths;
  Alcotest.(check int) (name ^ ": same total errors") free.O.total_errors
    faulty.O.total_errors;
  Alcotest.(check int) (name ^ ": both crashes observed") 2 faulty.O.crashes;
  Alcotest.(check bool)
    (name ^ ": recovery re-seeded jobs")
    true (faulty.O.recovered_jobs > 0);
  Alcotest.(check bool)
    (name ^ ": recovery replay cost accounted")
    true
    (faulty.O.recovered_jobs = 0 || faulty.O.recovery_replay_instrs > 0);
  (* accounting consistency: recovery replay is a subset of total replay,
     and a fault-free fresh run never books any replay as recovery — the
     failure-path re-imports (timed-out offers, dead-thief re-routes,
     restored frontiers) are the only other sources of the counter *)
  Alcotest.(check bool)
    (name ^ ": recovery replay within total replay")
    true
    (faulty.O.recovery_replay_instrs <= faulty.O.replay_instrs);
  Alcotest.(check int) (name ^ ": fault-free run books no recovery replay") 0
    free.O.recovery_replay_instrs;
  Alcotest.(check int) (name ^ ": fault-free run re-seeds nothing") 0 free.O.recovered_jobs

(* ntokens:3 keeps the run long enough (~300 ticks) that both scheduled
   crashes land while the victims still hold leased or digested work —
   prefix handoff spreads the tree fast enough that the ntokens:2 tree
   is exhausted before the mid-run crash ticks. *)
let test_differential_test_target () =
  differential "test" (Targets.Test_target.program ~ntokens:3) ()

let test_differential_memcached () =
  differential "memcached"
    (Targets.Memcached_mini.symbolic_packets ~npackets:2 ~pkt_len:4)
    ()

(* Loss alone (no crashes): the at-least-once transfer protocol must
   absorb dropped job batches and acks via retransmission. *)
let test_lossy_links_only () =
  let program = Targets.Test_target.program ~ntokens:2 in
  let free = run program in
  let faulty = run ~faults:(FP.create ~drop_prob:0.10 ~dup_prob:0.05 ~seed:3 ()) program in
  Alcotest.(check bool) "lossy run exhausts" true faulty.O.reached_goal;
  Alcotest.(check int) "same total paths" free.O.total_paths faulty.O.total_paths;
  Alcotest.(check int) "same total errors" free.O.total_errors faulty.O.total_errors;
  Alcotest.(check int) "no crashes" 0 faulty.O.crashes

(* --- ledger unit tests -------------------------------------------------------------- *)

let p1 : Path.t = [ Path.Branch true ]
let p2 : Path.t = [ Path.Branch false ]

let test_ledger_backoff () =
  let l = Ledger.create ~base_timeout:10 ~max_attempts:3 () in
  let _id = Ledger.issue l ~dst:1 ~jobs:[ p1 ] ~now:0 ~recovery:false in
  let resend, failed = Ledger.tick_timeouts l ~now:9 in
  Alcotest.(check int) "quiet before the deadline" 0 (List.length resend + List.length failed);
  let resend, failed = Ledger.tick_timeouts l ~now:10 in
  Alcotest.(check int) "first retransmit at base timeout" 1 (List.length resend);
  Alcotest.(check int) "not yet failed" 0 (List.length failed);
  let resend, _ = Ledger.tick_timeouts l ~now:29 in
  Alcotest.(check int) "backoff doubled: quiet at 29" 0 (List.length resend);
  let resend, _ = Ledger.tick_timeouts l ~now:30 in
  Alcotest.(check int) "second retransmit at 30" 1 (List.length resend);
  let resend, failed = Ledger.tick_timeouts l ~now:70 in
  Alcotest.(check int) "attempts exhausted: no resend" 0 (List.length resend);
  Alcotest.(check int) "lease declared failed" 1 (List.length failed);
  Alcotest.(check int) "two retransmissions counted" 2 (Ledger.retransmits l);
  (* the failed lease stays until its destination is evicted, and the
     eviction's recovery set re-seeds the jobs exactly once *)
  Alcotest.(check int) "failed lease still pending" 1 (Ledger.pending l);
  let r = Ledger.on_crash l ~worker:1 in
  Alcotest.(check bool) "eviction collects the failed lease" true (r.Ledger.orphans = [ p1 ]);
  Alcotest.(check int) "ledger clean after eviction" 0 (Ledger.pending l)

let test_ledger_release_on_report () =
  (* a report taken before the delivery must NOT release the lease *)
  let l = Ledger.create () in
  let id = Ledger.issue l ~dst:1 ~jobs:[ p1 ] ~now:0 ~recovery:false in
  Ledger.mark_delivered l ~lease:id ~now:5;
  Ledger.record_report l ~worker:1 ~tick:4 ~digest:[] ~paths:0 ~errors:0;
  let r = Ledger.on_crash l ~worker:1 in
  Alcotest.(check int) "pre-delivery report keeps the lease" 1 (List.length r.Ledger.orphans);
  (* a report taken after the delivery releases it: the jobs are covered
     by the digest/counters from then on *)
  let l = Ledger.create () in
  let id = Ledger.issue l ~dst:1 ~jobs:[ p1 ] ~now:0 ~recovery:false in
  Ledger.mark_delivered l ~lease:id ~now:5;
  Ledger.record_report l ~worker:1 ~tick:6 ~digest:[] ~paths:3 ~errors:1;
  let r = Ledger.on_crash l ~worker:1 in
  Alcotest.(check int) "post-delivery report releases the lease" 0
    (List.length r.Ledger.orphans);
  Alcotest.(check int) "reported paths credited" 3 r.Ledger.credit_paths;
  Alcotest.(check int) "reported errors credited" 1 r.Ledger.credit_errors;
  (* every network ack lost: the cumulative acknowledgement piggybacked
     on the report must release the lease anyway *)
  let l = Ledger.create () in
  let id = Ledger.issue l ~dst:1 ~jobs:[ p1 ] ~now:0 ~recovery:false in
  Ledger.record_report ~received:[ id ] l ~worker:1 ~tick:8 ~digest:[] ~paths:0 ~errors:0;
  Alcotest.(check int) "piggybacked ack releases the lease" 0 (Ledger.pending l);
  Alcotest.(check int) "released lease is not re-seeded" 0
    (List.length (Ledger.on_crash l ~worker:1).Ledger.orphans)

let test_ledger_sent_out_subtraction () =
  let l = Ledger.create () in
  Ledger.record_report l ~worker:0 ~tick:10 ~digest:[ p1; p2 ] ~paths:7 ~errors:0;
  Ledger.record_sent_out l ~src:0 ~jobs:[ p2 ];
  let r = Ledger.on_crash l ~worker:0 in
  Alcotest.(check int) "transferred-out path subtracted from orphans" 1
    (List.length r.Ledger.orphans);
  Alcotest.(check bool) "surviving orphan is the retained path" true
    (r.Ledger.orphans = [ p1 ]);
  Alcotest.(check bool) "the handed-away node is banned" true (r.Ledger.bans = [ p2 ]);
  Alcotest.(check int) "report credit unaffected" 7 r.Ledger.credit_paths

let test_ledger_duplicate_ack () =
  let l = Ledger.create () in
  let id = Ledger.issue l ~dst:2 ~jobs:[ p1 ] ~now:0 ~recovery:false in
  Ledger.mark_delivered l ~lease:id ~now:3;
  Ledger.mark_delivered l ~lease:id ~now:9;
  (* a duplicate ack must not move the delivery point past a report *)
  Ledger.record_report l ~worker:2 ~tick:4 ~digest:[] ~paths:0 ~errors:0;
  Alcotest.(check int) "released at first delivery tick" 0 (List.length (Ledger.on_crash l ~worker:2).Ledger.orphans);
  Ledger.mark_delivered l ~lease:999 ~now:1 (* unknown ids are ignored *)

(* --- fault plan unit tests ---------------------------------------------------------- *)

let test_faultplan_determinism () =
  let plan = FP.create ~drop_prob:0.3 ~dup_prob:0.1 ~delay_prob:0.2 ~seed:5 () in
  let sample () =
    let rt = FP.make plan in
    List.init 300 (fun i -> FP.fate rt ~tick:i ~src:(i mod 4) ~dst:((i + 1) mod 4))
  in
  Alcotest.(check bool) "same seed, same fate sequence" true (sample () = sample ());
  Alcotest.(check bool) "drops occur" true (List.mem FP.Drop (sample ()));
  Alcotest.(check bool) "deliveries occur" true (List.mem (FP.Deliver 0) (sample ()))

let test_faultplan_schedule () =
  let plan =
    FP.create ~crashes:[ FP.crash 3 ~at_tick:17 ~rejoin_after:5; FP.crash 1 ~at_tick:17 ] ()
  in
  let rt = FP.make plan in
  Alcotest.(check (list int)) "both crashes fire at 17" [ 1; 3 ]
    (List.sort compare (FP.crashes_at rt ~tick:17));
  Alcotest.(check (list int)) "nothing at 18" [] (FP.crashes_at rt ~tick:18);
  Alcotest.(check (list int)) "rejoin fires after the delay" [ 3 ] (FP.rejoins_at rt ~tick:22);
  Alcotest.(check (list int)) "permanent victim never rejoins" []
    (FP.rejoins_at rt ~tick:17 @ FP.rejoins_at rt ~tick:22 |> List.filter (( = ) 1))

let test_faultplan_partition () =
  let plan = FP.create ~partitions:[ { FP.p_a = 0; p_b = 1; p_from = 10; p_until = 20 } ] () in
  let rt = FP.make plan in
  Alcotest.(check bool) "partition drops a->b" true (FP.fate rt ~tick:15 ~src:0 ~dst:1 = FP.Drop);
  Alcotest.(check bool) "partition drops b->a" true (FP.fate rt ~tick:15 ~src:1 ~dst:0 = FP.Drop);
  Alcotest.(check bool) "link up before the window" true
    (FP.fate rt ~tick:9 ~src:0 ~dst:1 = FP.Deliver 0);
  Alcotest.(check bool) "link up from p_until" true
    (FP.fate rt ~tick:20 ~src:0 ~dst:1 = FP.Deliver 0);
  Alcotest.(check bool) "balancer path unaffected" true
    (FP.fate rt ~tick:15 ~src:FP.lb ~dst:1 = FP.Deliver 0);
  Alcotest.(check bool) "other links unaffected" true
    (FP.fate rt ~tick:15 ~src:0 ~dst:2 = FP.Deliver 0)

(* validate: runtimes refuse plans that reference workers outside the
   cluster or schedule a rejoin that could never fire *)

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  go 0

let expect_rejected name plan ~nworkers ~mentioning =
  match FP.validate plan ~nworkers with
  | Ok () -> Alcotest.failf "%s: invalid plan accepted" name
  | Error m ->
    Alcotest.(check bool)
      (Printf.sprintf "%s: message %S mentions %S" name m mentioning)
      true (contains m mentioning)

let test_validate_worker_range () =
  expect_rejected "victim out of range"
    (FP.create ~crashes:[ FP.crash 7 ~at_tick:10 ] ())
    ~nworkers:4 ~mentioning:"worker 7";
  expect_rejected "negative victim"
    (FP.create ~crashes:[ FP.crash (-1) ~at_tick:10 ] ())
    ~nworkers:4 ~mentioning:"worker -1";
  (* the same plan is fine on a cluster that actually has the slot *)
  Alcotest.(check bool) "victim in range accepted" true
    (FP.validate (FP.create ~crashes:[ FP.crash 7 ~at_tick:10 ] ()) ~nworkers:8 = Ok ())

let test_validate_rejoin_delay () =
  expect_rejected "zero rejoin delay"
    (FP.create ~crashes:[ FP.crash 1 ~at_tick:10 ~rejoin_after:0 ] ())
    ~nworkers:4 ~mentioning:"rejoin";
  expect_rejected "negative rejoin delay"
    (FP.create ~crashes:[ FP.crash 1 ~at_tick:10 ~rejoin_after:(-3) ] ())
    ~nworkers:4 ~mentioning:"rejoin";
  Alcotest.(check bool) "strictly-later rejoin accepted" true
    (FP.validate (FP.create ~crashes:[ FP.crash 1 ~at_tick:10 ~rejoin_after:1 ] ()) ~nworkers:4
    = Ok ())

let () =
  Alcotest.run "faults"
    [
      ( "differential",
        [
          Alcotest.test_case "test target: crashes + loss exact" `Quick
            test_differential_test_target;
          Alcotest.test_case "memcached: crashes + loss exact" `Quick
            test_differential_memcached;
          Alcotest.test_case "lossy links only" `Quick test_lossy_links_only;
        ] );
      ( "ledger",
        [
          Alcotest.test_case "retransmit backoff" `Quick test_ledger_backoff;
          Alcotest.test_case "release on report" `Quick test_ledger_release_on_report;
          Alcotest.test_case "sent-out subtraction" `Quick test_ledger_sent_out_subtraction;
          Alcotest.test_case "duplicate ack" `Quick test_ledger_duplicate_ack;
        ] );
      ( "faultplan",
        [
          Alcotest.test_case "determinism" `Quick test_faultplan_determinism;
          Alcotest.test_case "crash schedule" `Quick test_faultplan_schedule;
          Alcotest.test_case "partitions" `Quick test_faultplan_partition;
          Alcotest.test_case "validate: worker range" `Quick test_validate_worker_range;
          Alcotest.test_case "validate: rejoin delay" `Quick test_validate_rejoin_delay;
        ] );
    ]
