(* Cross-cutting property tests: persistent queue semantics, the symbolic
   memory's copy-on-write isolation and little-endian layout, path/trie
   algebra, expression substitution, and solver determinism. *)

module E = Smt.Expr
module Path = Engine.Path

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

(* --- Fqueue: model-based against plain lists ------------------------------- *)

type qop = Push of int | Pop | Pop_n of int

let gen_qops =
  let open QCheck2.Gen in
  list_size (int_range 1 60)
    (frequency
       [
         (3, map (fun x -> Push x) (int_bound 1000));
         (2, return Pop);
         (1, map (fun n -> Pop_n n) (int_bound 5));
       ])

let prop_fqueue_matches_list_model =
  QCheck2.Test.make ~count:300 ~name:"Fqueue behaves like a list" gen_qops (fun ops ->
      let q = ref Posix.Fqueue.empty in
      let model = ref [] in
      List.for_all
        (fun op ->
          match op with
          | Push x ->
            q := Posix.Fqueue.push !q x;
            model := !model @ [ x ];
            true
          | Pop -> (
            match (Posix.Fqueue.pop !q, !model) with
            | None, [] -> true
            | Some (x, q'), y :: rest ->
              q := q';
              model := rest;
              x = y
            | _ -> false)
          | Pop_n n ->
            let xs, q' = Posix.Fqueue.pop_n !q n in
            q := q';
            let expect = List.filteri (fun i _ -> i < n) !model in
            model := List.filteri (fun i _ -> i >= n) !model;
            xs = expect)
        ops
      && Posix.Fqueue.to_list !q = !model
      && Posix.Fqueue.length !q = List.length !model)

(* --- Memory ------------------------------------------------------------------ *)

let prop_memory_roundtrip =
  let gen =
    QCheck2.Gen.(pair (int_bound 20) (list_size (int_range 1 8) (int_bound 255)))
  in
  QCheck2.Test.make ~count:300 ~name:"memory store/load roundtrip (little-endian)" gen
    (fun (off, bytes) ->
      let mem = Cvm.Memory.empty in
      let mem, base = Cvm.Memory.alloc mem ~pid:0 ~size:32 in
      let addr = base + off in
      let mem =
        List.fold_left
          (fun (mem, i) b ->
            (Cvm.Memory.store mem ~pid:0 ~addr:(addr + i) (E.const ~width:8 (Int64.of_int b)), i + 1))
          (mem, 0) bytes
        |> fst
      in
      let loaded = Cvm.Memory.load mem ~pid:0 ~addr ~len:(List.length bytes) in
      let expect =
        List.rev bytes |> List.fold_left (fun acc b -> Int64.logor (Int64.shift_left acc 8) (Int64.of_int b)) 0L
      in
      E.const_value loaded = Some expect)

let test_memory_cow_isolation () =
  let mem = Cvm.Memory.empty in
  let mem, base = Cvm.Memory.alloc mem ~pid:0 ~size:4 in
  let mem = Cvm.Memory.store mem ~pid:0 ~addr:base (E.const ~width:8 7L) in
  let mem = Cvm.Memory.clone_space mem ~parent:0 ~child:1 in
  (* the child sees the parent's value... *)
  Alcotest.(check bool) "child inherits" true
    (E.const_value (Cvm.Memory.load mem ~pid:1 ~addr:base ~len:1) = Some 7L);
  (* ...but writes diverge in both directions *)
  let mem2 = Cvm.Memory.store mem ~pid:1 ~addr:base (E.const ~width:8 9L) in
  Alcotest.(check bool) "parent unaffected by child write" true
    (E.const_value (Cvm.Memory.load mem2 ~pid:0 ~addr:base ~len:1) = Some 7L);
  let mem3 = Cvm.Memory.store mem2 ~pid:0 ~addr:base (E.const ~width:8 5L) in
  Alcotest.(check bool) "child unaffected by parent write" true
    (E.const_value (Cvm.Memory.load mem3 ~pid:1 ~addr:base ~len:1) = Some 9L)

let test_memory_shared_objects () =
  let mem = Cvm.Memory.empty in
  let mem, base = Cvm.Memory.alloc ~shared:true mem ~pid:0 ~size:4 in
  let mem = Cvm.Memory.clone_space mem ~parent:0 ~child:1 in
  let mem = Cvm.Memory.store mem ~pid:1 ~addr:base (E.const ~width:8 3L) in
  Alcotest.(check bool) "shared write visible across processes" true
    (E.const_value (Cvm.Memory.load mem ~pid:0 ~addr:base ~len:1) = Some 3L)

let test_memory_faults () =
  let mem = Cvm.Memory.empty in
  let mem, base = Cvm.Memory.alloc mem ~pid:0 ~size:4 in
  Alcotest.check_raises "out of bounds"
    (Cvm.Memory.Fault (Cvm.Memory.Out_of_bounds { addr = base + 3; size = 2 }))
    (fun () -> ignore (Cvm.Memory.load mem ~pid:0 ~addr:(base + 3) ~len:2));
  Alcotest.check_raises "unmapped" (Cvm.Memory.Fault (Cvm.Memory.Unmapped { addr = 4 }))
    (fun () -> ignore (Cvm.Memory.load mem ~pid:0 ~addr:4 ~len:1));
  let mem = Cvm.Memory.free mem ~pid:0 ~addr:base in
  Alcotest.check_raises "use after free"
    (Cvm.Memory.Fault (Cvm.Memory.Use_after_free { addr = base }))
    (fun () -> ignore (Cvm.Memory.load mem ~pid:0 ~addr:base ~len:1))

(* --- Path algebra ---------------------------------------------------------------- *)

let gen_path =
  QCheck2.Gen.(
    list_size (int_bound 12)
      (oneof
         [
           map (fun b -> Path.Branch b) bool;
           map (fun i -> Path.Sched i) (int_bound 3);
           map (fun i -> Path.Sys i) (int_bound 3);
         ]))

let prop_path_prefix =
  QCheck2.Test.make ~count:300 ~name:"path prefix algebra" (QCheck2.Gen.pair gen_path gen_path)
    (fun (p, q) ->
      Path.is_prefix p (p @ q)
      && Path.common_prefix_len p p = Path.length p
      && Path.common_prefix_len p q <= min (Path.length p) (Path.length q)
      && (Path.to_string p = Path.to_string q) = (p = q))

(* The prefix-handoff batch codec: factoring a batch of root paths into
   longest-common-prefix + suffixes, shipping it through the wire form,
   and re-expanding must lose no node, duplicate no node, and preserve
   order; the analytic replay bound is prefix + sum-of-suffixes. *)
let gen_batch =
  (* bias toward genuinely shared prefixes: a common stem plus per-member
     tails, mixed with fully independent paths *)
  QCheck2.Gen.(
    let clustered =
      map2 (fun stem tails -> List.map (fun t -> stem @ t) tails) gen_path
        (list_size (int_range 1 6) gen_path)
    in
    let scattered = list_size (int_range 1 6) gen_path in
    oneof [ clustered; scattered ])

let prop_prefix_codec =
  QCheck2.Test.make ~count:500 ~name:"prefix batch codec roundtrip" gen_batch (fun ps ->
      let ((prefix, sufs) as b) = Path.factor ps in
      (* no loss, no duplication, order preserved *)
      Path.expand b = ps
      (* every member really extends the prefix *)
      && List.for_all (fun p -> Path.is_prefix prefix p) ps
      (* maximality: with >= 2 members the suffix heads cannot all agree *)
      && (match sufs with
         | [] | [ _ ] -> true
         | s0 :: rest -> (
           match s0 with
           | [] -> true
           | h :: _ ->
             List.exists (function [] -> true | h' :: _ -> h' <> h) rest))
      (* wire roundtrip is exact *)
      && Path.decode_batch (Path.encode_batch b) = Ok b
      (* analytic replay cost: shared prefix once, then each suffix *)
      && Path.replay_bound b
         = Path.length prefix + List.fold_left (fun a s -> a + Path.length s) 0 sufs
      && Path.replay_bound b
         <= List.fold_left (fun a p -> a + Path.length p) 0 ps
            + (if ps = [] then 0 else Path.length prefix))

let prop_prefix_codec_rejects_garbage =
  QCheck2.Test.make ~count:300 ~name:"batch codec rejects corrupt wire strings"
    QCheck2.Gen.(string_size ~gen:printable (int_bound 20))
    (fun s ->
      (* decode never raises; any Ok result re-encodes to the same bytes *)
      match Path.decode_batch s with
      | Error _ -> true
      | Ok b -> Path.encode_batch b = s)

(* --- Trie: model-based ---------------------------------------------------------- *)

let prop_trie_matches_assoc_model =
  let gen = QCheck2.Gen.(list_size (int_range 1 40) (pair gen_path (int_bound 100))) in
  QCheck2.Test.make ~count:200 ~name:"trie add/remove/find vs assoc model" gen (fun ops ->
      let t = Engine.Trie.create () in
      let model = Hashtbl.create 16 in
      List.iter
        (fun (p, v) ->
          Engine.Trie.add t p v;
          Hashtbl.replace model (Path.to_string p) (p, v))
        ops;
      let ok_finds =
        Hashtbl.fold
          (fun _ (p, v) acc -> acc && Engine.Trie.find t p = Some v)
          model true
      in
      let ok_size = Engine.Trie.size t = Hashtbl.length model in
      (* remove half the keys and re-check *)
      let keys = Hashtbl.fold (fun _ (p, _) acc -> p :: acc) model [] in
      let removed = List.filteri (fun i _ -> i mod 2 = 0) keys in
      List.iter
        (fun p ->
          assert (Engine.Trie.remove t p);
          Hashtbl.remove model (Path.to_string p))
        removed;
      let ok_after =
        Hashtbl.fold (fun _ (p, v) acc -> acc && Engine.Trie.find t p = Some v) model true
        && List.for_all (fun p -> Engine.Trie.find t p = None) removed
        && Engine.Trie.size t = Hashtbl.length model
      in
      ok_finds && ok_size && ok_after)

(* Weighted frontier: random add / replace / remove / select-and-re-add
   sequences against an assoc model.  Paths come from a small alphabet so
   replacements and shared prefixes are common; weights are multiples of
   1/4 and targets multiples of 1/8, so every sum and every subtraction of
   the descent is exact and the comparison with the linear scan is too. *)

type trie_op =
  | T_add of Path.t * int * float
  | T_remove of Path.t
  | T_readd of bool * int * Path.t * float (* cov turn, target slot, suffix, weight *)

let gen_small_path =
  QCheck2.Gen.(
    list_size (int_bound 4)
      (oneof [ map (fun b -> Path.Branch b) bool; map (fun i -> Path.Sys i) (int_bound 1) ]))

let gen_trie_ops =
  let weight = QCheck2.Gen.map (fun q -> float_of_int q /. 4.0) (QCheck2.Gen.int_bound 8) in
  QCheck2.Gen.(
    list_size (int_range 1 40)
      (frequency
         [
           (4, map3 (fun p v w -> T_add (p, v, w)) gen_small_path (int_bound 100) weight);
           (2, map (fun p -> T_remove p) gen_small_path);
           ( 3,
             map2
               (fun (cov, slot) (suffix, w) -> T_readd (cov, slot, suffix, w))
               (pair bool (int_bound 1000))
               (pair (list_size (int_bound 1) (map (fun b -> Path.Branch b) bool)) weight) );
         ]))

let print_trie_ops ops =
  String.concat "; "
    (List.map
       (function
         | T_add (p, v, w) -> Printf.sprintf "add %s=%d@%g" (Path.to_string p) v w
         | T_remove p -> "remove " ^ Path.to_string p
         | T_readd (cov, slot, s, w) ->
           Printf.sprintf "readd %b/%d +%s@%g" cov slot (Path.to_string s) w)
       ops)

(* Payloads carry their own path and weight, so the checks can see them. *)
let run_trie_ops ops =
  let t = Engine.Trie.create () in
  let model = Hashtbl.create 16 in
  let rng = Random.State.make [| 5 |] in
  let ok = ref true in
  let check () =
    let expected_total = Hashtbl.fold (fun _ (_, _, w) acc -> acc +. w) model 0.0 in
    ok :=
      !ok && Engine.Trie.well_formed t
      && Engine.Trie.size t = Hashtbl.length model
      && Engine.Trie.total t = expected_total
      && (Hashtbl.length model > 0 || Engine.Trie.total t = 0.0)
      && Hashtbl.fold
           (fun k (p, v, w) acc -> acc && Engine.Trie.find t p = Some (k, v, w))
           model true
  in
  List.iter
    (fun op ->
      (match op with
      | T_add (p, v, w) ->
        let k = Path.to_string p in
        Engine.Trie.add ~weight:w t p (k, v, w);
        Hashtbl.replace model k (p, v, w)
      | T_remove p ->
        let k = Path.to_string p in
        ok := !ok && Engine.Trie.remove t p = Hashtbl.mem model k;
        Hashtbl.remove model k
      | T_readd (cov, slot, suffix, w) ->
        (* the driver pattern: select, then re-add the stepped state (same
           path) or a fork child under the selected node *)
        let total = Engine.Trie.total t in
        let node =
          if cov && total > 0.0 then
            Engine.Trie.pick t ~target:(total *. float_of_int slot /. 1000.0)
          else Engine.Trie.random_pick rng t
        in
        (match Engine.Trie.take node with
        | None -> ok := !ok && Hashtbl.length model = 0
        | Some (k, v, _) ->
          let p, _, _ = Hashtbl.find model k in
          Hashtbl.remove model k;
          let p' = p @ suffix in
          let k' = Path.to_string p' in
          Engine.Trie.add ~weight:w ~at:node t suffix (k', v, w);
          Hashtbl.replace model k' (p', v, w)));
      check ())
    ops;
  (t, model, !ok)

let prop_trie_weighted_model =
  QCheck2.Test.make ~count:300 ~name:"weighted trie counts and sums vs assoc model"
    ~print:print_trie_ops gen_trie_ops (fun ops ->
      let t, model, ok = run_trie_ops ops in
      (* empty it: the total must come back to exactly 0.0 *)
      Hashtbl.iter (fun _ (p, _, _) -> ignore (Engine.Trie.remove t p)) model;
      ok && Engine.Trie.well_formed t && Engine.Trie.size t = 0 && Engine.Trie.total t = 0.0)

let prop_trie_pick_matches_scan =
  QCheck2.Test.make ~count:300 ~name:"trie pick ~target = linear prefix-sum scan"
    ~print:print_trie_ops gen_trie_ops (fun ops ->
      let t, _, ok = run_trie_ops ops in
      (* preorder, the order the descent lays the weights out in *)
      let entries = List.rev (Engine.Trie.fold (fun e acc -> e :: acc) t []) in
      let scan target =
        let rec go acc = function
          | [] -> None
          | ((_, _, w) as e) :: rest -> if target < acc +. w then Some e else go (acc +. w) rest
        in
        go 0.0 entries
      in
      let total = Engine.Trie.total t in
      let agree = ref true in
      for k = 0 to int_of_float (8.0 *. total) - 1 do
        let target = float_of_int k /. 8.0 in
        agree := !agree && Engine.Trie.payload (Engine.Trie.pick t ~target) = scan target
      done;
      (* float slack: a target at or past the end clamps to the last
         payload of positive weight *)
      let last_positive =
        List.fold_left (fun acc ((_, _, w) as e) -> if w > 0.0 then Some e else acc) None entries
      in
      let clamps target = Engine.Trie.payload (Engine.Trie.pick t ~target) = last_positive in
      ok && !agree && (total = 0.0 || (clamps total && clamps (total +. 0.125))))

(* Random-path descent is uniform over {payload here} and each non-empty
   child at every level: with payloads at [], [T], [F] and [T;T], the root
   splits three ways and [T] two ways. *)
let test_trie_random_pick_distribution () =
  let t = Engine.Trie.create () in
  let paths = Path.[ []; [ Branch true ]; [ Branch false ]; [ Branch true; Branch true ] ] in
  List.iter (fun p -> Engine.Trie.add t p (Path.to_string p)) paths;
  let rng = Random.State.make [| 11 |] in
  let n = 60_000 in
  let hits = Hashtbl.create 4 in
  for _ = 1 to n do
    match Engine.Trie.payload (Engine.Trie.random_pick rng t) with
    | Some k -> Hashtbl.replace hits k (1 + Option.value ~default:0 (Hashtbl.find_opt hits k))
    | None -> Alcotest.fail "random_pick missed a non-empty trie"
  done;
  List.iter
    (fun (k, expected) ->
      let share = float_of_int (Option.value ~default:0 (Hashtbl.find_opt hits k)) /. float_of_int n in
      Alcotest.(check bool)
        (Printf.sprintf "%S drawn %.3f of the time, expected %.3f" k share expected)
        true
        (Float.abs (share -. expected) < 0.01))
    [ ("", 1.0 /. 3.0); ("F", 1.0 /. 3.0); ("T", 1.0 /. 6.0); ("TT", 1.0 /. 6.0) ]

let prop_trie_random_pick_member =
  let gen = QCheck2.Gen.(list_size (int_range 1 20) (pair gen_path (int_bound 100))) in
  QCheck2.Test.make ~count:200 ~name:"trie random_pick returns a stored payload" gen
    (fun ops ->
      let t = Engine.Trie.create () in
      List.iter (fun (p, v) -> Engine.Trie.add t p v) ops;
      let rng = Random.State.make [| 9 |] in
      let removed = List.filteri (fun i _ -> i mod 3 = 0) ops in
      List.iter (fun (p, _) -> ignore (Engine.Trie.remove t p)) removed;
      let stored = Engine.Trie.fold (fun v acc -> v :: acc) t [] in
      List.for_all
        (fun _ ->
          match Engine.Trie.payload (Engine.Trie.random_pick rng t) with
          | None -> Engine.Trie.size t = 0
          | Some v -> List.mem v stored)
        (List.init 20 Fun.id))

(* --- expression substitution -------------------------------------------------------- *)

let sym_a = E.fresh_sym ~name:"pa" 8

let prop_substitute_sound =
  (* if the context forces a = c, then substituting a -> c preserves
     evaluation under any model with a = c *)
  let gen = QCheck2.Gen.(pair (int_bound 255) (int_bound 255)) in
  QCheck2.Test.make ~count:300 ~name:"substitute preserves eval under the equality" gen
    (fun (c, other) ->
      let cst = E.const ~width:8 (Int64.of_int c) in
      let e =
        E.add (E.mul sym_a (E.const ~width:8 (Int64.of_int other))) (E.binop E.Xor sym_a cst)
      in
      let e' = E.substitute [ (sym_a, cst) ] e in
      let lookup id = if Some id = (match sym_a.E.node with E.Sym { id; _ } -> Some id | _ -> None) then Some (Int64.of_int c) else None in
      E.eval lookup e = E.eval lookup e' && E.syms e' = [])

(* --- solver determinism ---------------------------------------------------------------- *)

let test_check_deterministic_history_independent () =
  let x = E.fresh_sym ~name:"dx" 8 in
  let y = E.fresh_sym ~name:"dy" 8 in
  let pc = [ E.ult x (E.const ~width:8 200L); E.ult (E.const ~width:8 3L) y ] in
  let model_of solver =
    match Smt.Solver.check_deterministic solver pc with
    | Smt.Solver.Sat m -> Smt.Model.bindings m
    | Smt.Solver.Unsat -> Alcotest.fail "pc must be sat"
  in
  (* solver 1: fresh *)
  let s1 = Smt.Solver.create () in
  let m1 = model_of s1 in
  (* solver 2: polluted with unrelated query history first *)
  let s2 = Smt.Solver.create () in
  ignore (Smt.Solver.check s2 [ E.eq x (E.const ~width:8 123L) ]);
  ignore (Smt.Solver.check s2 [ E.eq y (E.const ~width:8 45L) ]);
  ignore (Smt.Solver.branch_feasible s2 ~pc (E.eq x (E.const ~width:8 7L)));
  let m2 = model_of s2 in
  Alcotest.(check bool) "same model regardless of history" true (m1 = m2)

(* --- engine: replay determinism at the state level --------------------------------------- *)

let test_fresh_input_ids_deterministic () =
  let open Lang.Builder in
  let program =
    compile
      (cunit ~entry:"main"
         [ fn "main" [] (Some u32) [ halt (n 0) ] ])
  in
  let st1 = Engine.State.init program ~env:() ~args:[] in
  let st1, syms1 = Engine.State.fresh_input st1 ~name:"x" ~count:3 in
  let _, syms1b = Engine.State.fresh_input st1 ~name:"y" ~count:2 in
  let st2 = Engine.State.init program ~env:() ~args:[] in
  let st2, syms2 = Engine.State.fresh_input st2 ~name:"x" ~count:3 in
  let _, syms2b = Engine.State.fresh_input st2 ~name:"y" ~count:2 in
  Alcotest.(check bool) "identical symbol ids across replays" true
    (syms1 = syms2 && syms1b = syms2b)

let () =
  Alcotest.run "props"
    [
      ("fqueue", qsuite [ prop_fqueue_matches_list_model ]);
      ( "memory",
        [
          Alcotest.test_case "CoW isolation" `Quick test_memory_cow_isolation;
          Alcotest.test_case "shared objects" `Quick test_memory_shared_objects;
          Alcotest.test_case "faults" `Quick test_memory_faults;
        ]
        @ qsuite [ prop_memory_roundtrip ] );
      ("path", qsuite [ prop_path_prefix; prop_prefix_codec; prop_prefix_codec_rejects_garbage ]);
      ( "trie",
        qsuite
          [
            prop_trie_matches_assoc_model;
            prop_trie_random_pick_member;
            prop_trie_weighted_model;
            prop_trie_pick_matches_scan;
          ]
        @ [
            Alcotest.test_case "random_pick distribution" `Quick
              test_trie_random_pick_distribution;
          ] );
      ("substitution", qsuite [ prop_substitute_sound ]);
      ( "determinism",
        [
          Alcotest.test_case "solver history independence" `Quick
            test_check_deterministic_history_independent;
          Alcotest.test_case "symbol ids replay-stable" `Quick test_fresh_input_ids_deterministic;
        ] );
    ]
