(* Tests for the Cloud9 facade: local runs, cluster runs, the registry,
   and the cross-check that a cluster run explores exactly the same number
   of paths as a local run of the same target. *)

module C = Core.Cloud9

let small_target () =
  match Core.Registry.resolve ~name:"printf" ~variant:(Some "sym-4") with
  | Some t -> t
  | None -> Alcotest.fail "printf target missing from registry"

let test_run_local () =
  let r = C.run_local (small_target ()) in
  Alcotest.(check bool) "exhausted" true r.C.exhausted;
  Alcotest.(check bool) "paths found" true (r.C.paths > 100);
  Alcotest.(check int) "no errors in printf" 0 r.C.errors;
  Alcotest.(check bool) "coverage high" true (r.C.coverage > 0.75);
  Alcotest.(check bool) "solver was used" true (r.C.solver_stats.Smt.Solver.queries > 0)

let test_cluster_matches_local () =
  let t = small_target () in
  let local = C.run_local t in
  let cluster =
    C.run_cluster
      ~options:{ C.default_cluster_options with C.nworkers = 4; speed = 1000; status_interval = 5 }
      t
  in
  Alcotest.(check bool) "cluster reached goal" true cluster.Cluster.Outcome.reached_goal;
  Alcotest.(check int) "cluster explores exactly the local path count" local.C.paths
    cluster.Cluster.Outcome.total_paths;
  Alcotest.(check int) "no broken replays" 0 cluster.Cluster.Outcome.broken_replays

let test_registry_complete () =
  (* every Table 4 system is present with a default variant *)
  List.iter
    (fun name ->
      match Core.Registry.resolve ~name ~variant:None with
      | Some t -> Alcotest.(check bool) (name ^ " program nonempty") true
                    (Cvm.Program.instruction_count t.C.program > 0)
      | None -> Alcotest.failf "registry missing %s" name)
    [
      "memcached"; "lighttpd"; "curl"; "bandicoot"; "apache"; "ghttpd"; "python"; "rsync";
      "pbzip"; "libevent"; "printf"; "test"; "prodcons"; "coreutils";
    ]

let test_registry_unknown () =
  Alcotest.(check bool) "unknown name" true (Core.Registry.resolve ~name:"nope" ~variant:None = None);
  Alcotest.(check bool) "unknown variant" true
    (Core.Registry.resolve ~name:"curl" ~variant:(Some "nope") = None)

let test_table4_rows () =
  let rows = Core.Registry.table4 () in
  Alcotest.(check int) "fourteen systems" 14 (List.length rows);
  List.iter
    (fun (name, kind, instrs, lines) ->
      Alcotest.(check bool) (name ^ " sized") true (instrs > 0 && lines > 0);
      Alcotest.(check bool) (name ^ " typed") true (String.length kind > 0))
    rows

let test_error_tests_extraction () =
  match Core.Registry.resolve ~name:"curl" ~variant:(Some "symbolic") with
  | None -> Alcotest.fail "curl target missing"
  | Some t ->
    let r = C.run_local ~options:{ C.default_options with C.collect_tests = 1000 } t in
    let bugs = C.error_tests r in
    Alcotest.(check bool) "bug test cases extracted" true (List.length bugs > 0);
    (* each bug test carries a concrete input that triggers it *)
    List.iter
      (fun tc ->
        Alcotest.(check bool) "bug input materialized" true
          (List.mem_assoc "url" tc.Engine.Testcase.inputs))
      bugs

let test_replay_reproduces_bugs () =
  (* every generated bug test, re-run concretely, must hit the same bug *)
  match Core.Registry.resolve ~name:"curl" ~variant:(Some "symbolic") with
  | None -> Alcotest.fail "curl target missing"
  | Some t ->
    let r = C.run_local ~options:{ C.default_options with C.collect_tests = 2000 } t in
    let bugs = C.error_tests r in
    Alcotest.(check bool) "bugs to replay" true (List.length bugs > 10);
    List.iteri
      (fun i tc ->
        if i < 25 then
          match C.replay_test t tc with
          | Some (Engine.Errors.Error (Engine.Errors.Memory_fault _)) -> ()
          | Some other ->
            Alcotest.failf "bug %d replayed to %s" i (Engine.Errors.termination_to_string other)
          | None -> Alcotest.failf "bug %d replay was not deterministic" i)
      bugs

let test_replay_reproduces_exits () =
  (* non-bug tests replay to the same exit code *)
  match Core.Registry.resolve ~name:"python" ~variant:(Some "sym-3") with
  | None -> Alcotest.fail "python target missing"
  | Some t ->
    let r =
      C.run_local
        ~options:{ C.default_options with C.collect_tests = 40; goal = Engine.Driver.Paths 40 }
        t
    in
    Alcotest.(check bool) "tests collected" true (List.length r.C.tests > 10);
    List.iteri
      (fun i tc ->
        match C.replay_test t tc with
        | Some term ->
          Alcotest.(check string)
            (Printf.sprintf "test %d termination" i)
            (Engine.Errors.termination_to_string tc.Engine.Testcase.termination)
            (Engine.Errors.termination_to_string term)
        | None -> Alcotest.failf "test %d replay was not deterministic" i)
      r.C.tests

let test_hang_detection_option () =
  match Core.Registry.resolve ~name:"memcached" ~variant:(Some "udp-hang") with
  | None -> Alcotest.fail "udp target missing"
  | Some t ->
    let r =
      C.run_local
        ~options:{ C.default_options with C.max_steps = Some 20000; collect_tests = 1000 }
        t
    in
    let hangs =
      List.filter
        (fun tc -> tc.Engine.Testcase.termination = Engine.Errors.Error Engine.Errors.Instruction_limit)
        r.C.tests
    in
    Alcotest.(check bool) "hang reported" true (List.length hangs > 0)

let () =
  Alcotest.run "core"
    [
      ( "cloud9",
        [
          Alcotest.test_case "run_local" `Quick test_run_local;
          Alcotest.test_case "cluster matches local" `Quick test_cluster_matches_local;
          Alcotest.test_case "error test extraction" `Quick test_error_tests_extraction;
          Alcotest.test_case "replay reproduces bugs" `Quick test_replay_reproduces_bugs;
          Alcotest.test_case "replay reproduces exits" `Quick test_replay_reproduces_exits;
          Alcotest.test_case "hang detection" `Quick test_hang_detection_option;
        ] );
      ( "registry",
        [
          Alcotest.test_case "all systems present" `Quick test_registry_complete;
          Alcotest.test_case "unknown lookups" `Quick test_registry_unknown;
          Alcotest.test_case "Table 4 rows" `Quick test_table4_rows;
        ] );
    ]
