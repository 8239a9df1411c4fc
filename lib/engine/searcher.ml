(* Exploration strategies: which candidate state to execute next.

   Cloud9 workers run the same searchers KLEE ships (paper section 7:
   "an interleaving of random-path and coverage-optimized strategies");
   the cluster layer coordinates them globally via the coverage overlay.

   All searchers share one interface and support removal by path.  A
   state's path is its unique key. *)

type 'env t = {
  add : 'env State.t -> unit;
  select : unit -> 'env State.t option; (* removes the state *)
  remove : Path.t -> unit;
  size : unit -> int;
  pending : unit -> int;
  (* diagnostic: entries in the internal ordering structure, including
     stale ones awaiting compaction; equals [size] for searchers without
     lazy deletion.  Lets tests assert stale entries stay bounded. *)
}

let key st = Path.to_string (State.path st)
let key_of_path p = Path.to_string p

(* --- depth-first / breadth-first -------------------------------------------- *)

(* Both keep an ordering of keys next to the key -> state table.  Keys are
   deduplicated through a membership set: re-adding a stepped (unforked)
   state — which the driver does on every step — replaces the table
   binding without pushing a second copy of the key, so the ordering
   stays O(live states), not O(steps).  Stale keys (left by [remove],
   e.g. job transfers) are skipped lazily on pop and
   compacted away once they outnumber the live population. *)

let stale_bound live = (2 * live) + 64

let dfs () =
  let table : (string, 'env State.t) Hashtbl.t = Hashtbl.create 64 in
  let queued : (string, unit) Hashtbl.t = Hashtbl.create 64 in
  let stack = ref [] in
  let rec pop () =
    match !stack with
    | [] -> None
    | k :: rest -> (
      stack := rest;
      Hashtbl.remove queued k;
      match Hashtbl.find_opt table k with
      | Some st ->
        Hashtbl.remove table k;
        Some st
      | None -> pop () (* removed earlier: skip the stale key *))
  in
  let compact () =
    if Hashtbl.length queued > stale_bound (Hashtbl.length table) then begin
      stack := List.filter (Hashtbl.mem table) !stack;
      Hashtbl.reset queued;
      List.iter (fun k -> Hashtbl.replace queued k ()) !stack
    end
  in
  {
    add =
      (fun st ->
        let k = key st in
        Hashtbl.replace table k st;
        if not (Hashtbl.mem queued k) then begin
          Hashtbl.replace queued k ();
          stack := k :: !stack
        end);
    select = pop;
    remove =
      (fun p ->
        Hashtbl.remove table (key_of_path p);
        compact ());
    size = (fun () -> Hashtbl.length table);
    pending = (fun () -> Hashtbl.length queued);
  }

let bfs () =
  let table : (string, 'env State.t) Hashtbl.t = Hashtbl.create 64 in
  let queued : (string, unit) Hashtbl.t = Hashtbl.create 64 in
  let q = Queue.create () in
  let rec pop () =
    match Queue.take_opt q with
    | None -> None
    | Some k -> (
      Hashtbl.remove queued k;
      match Hashtbl.find_opt table k with
      | Some st ->
        Hashtbl.remove table k;
        Some st
      | None -> pop ())
  in
  let compact () =
    if Hashtbl.length queued > stale_bound (Hashtbl.length table) then begin
      let live = Queue.create () in
      Queue.iter (fun k -> if Hashtbl.mem table k then Queue.add k live) q;
      Queue.clear q;
      Queue.transfer live q;
      Hashtbl.reset queued;
      Queue.iter (fun k -> Hashtbl.replace queued k ()) q
    end
  in
  {
    add =
      (fun st ->
        let k = key st in
        Hashtbl.replace table k st;
        if not (Hashtbl.mem queued k) then begin
          Hashtbl.replace queued k ();
          Queue.add k q
        end);
    select = pop;
    remove =
      (fun p ->
        Hashtbl.remove table (key_of_path p);
        compact ());
    size = (fun () -> Hashtbl.length table);
    pending = (fun () -> Hashtbl.length queued);
  }

(* --- the weighted frontier ------------------------------------------------------- *)

(* random-path, cov-opt and interleaved are one container: the alive
   states in a {!Trie} keyed by path, each weighted by {!State.weight}.
   They differ only in which descent each turn uses: KLEE's random path
   (deep subtrees do not dominate selection) or coverage-optimized (a
   weighted draw favouring states that recently covered new code; a
   state's weight cannot change while it is queued, so the trie's subtree
   sums give the exact distribution in one descent).

   The driver re-adds the state it just selected (same path) or its fork
   children (one choice deeper).  Those re-adds resolve against the
   last-selected node by physical equality of the newest-first path list
   instead of walking from the root. *)

type turn = Random_path | Cov_opt

let frontier ~rng turns =
  let trie = Trie.create () in
  let turn = ref 0 in
  (* the last-selected node and its state's path; the root and [] are
     always a valid pair *)
  let root = Trie.root trie in
  let last = ref root and last_path = ref [] in
  let forget () =
    last := root;
    last_path := []
  in
  let add (st : _ State.t) =
    let weight = State.weight st in
    match st.State.path with
    | p when p == !last_path -> Trie.add ~weight ~at:!last trie [] st
    | c :: parent when parent == !last_path -> Trie.add ~weight ~at:!last trie [ c ] st
    | _ ->
      forget ();
      Trie.add ~weight trie (State.path st) st
  in
  let select () =
    let t = turns.(!turn) in
    turn := (!turn + 1) mod Array.length turns;
    let total = Trie.total trie in
    let node =
      match t with
      | Cov_opt when total > 0.0 -> Trie.pick trie ~target:(Random.State.float rng total)
      | _ -> Trie.random_pick rng trie
    in
    match Trie.take node with
    | Some st as picked ->
      last := node;
      last_path := st.State.path;
      picked
    | None -> None
  in
  {
    add;
    select;
    remove =
      (fun p ->
        forget ();
        ignore (Trie.remove trie p));
    size = (fun () -> Trie.size trie);
    pending = (fun () -> Trie.size trie);
  }

(* The searcher used in the paper's evaluation: random-path interleaved
   with coverage-optimized. *)
let default ~rng () = frontier ~rng [| Random_path; Cov_opt |]

let names = [ "dfs"; "bfs"; "random-path"; "cov-opt"; "interleaved"; "default" ]

let of_name ~rng = function
  | "dfs" -> dfs ()
  | "bfs" -> bfs ()
  | "random-path" -> frontier ~rng [| Random_path |]
  | "cov-opt" -> frontier ~rng [| Cov_opt |]
  | "default" | "interleaved" -> default ~rng ()
  | other ->
    invalid_arg
      (Printf.sprintf "Searcher.of_name: unknown strategy %s (expected one of: %s)" other
         (String.concat ", " names))
