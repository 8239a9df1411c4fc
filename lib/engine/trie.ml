(* The path trie behind every frontier (see the interface).  Every linked
   node except the root holds a payload in its subtree: a node whose count
   drops to 0 is unlinked from its parent but keeps its parent pointer, so
   a client holding it (the searcher's last-selected state) can add under
   it again, and the upward refresh relinks it. *)

(* all-float, so the fields are stored unboxed and writes do not allocate *)
type weights = { mutable own : float; mutable sum : float }

type 'a node = {
  choice : Path.choice; (* the edge from the parent (unused at the root) *)
  parent : 'a node option;
  mutable payload : 'a option;
  mutable children : 'a node list; (* newest first *)
  mutable count : int; (* payloads in this subtree *)
  w : weights; (* own: this payload's weight; sum: the subtree's *)
}

type 'a t = 'a node (* the root *)

let make choice parent =
  { choice; parent; payload = None; children = []; count = 0; w = { own = 0.0; sum = 0.0 } }

let create () = make (Path.Branch false) None

let size t = t.count
let total t = t.w.sum
let root t = t
let payload n = n.payload

(* [n]'s count and sum accumulated over [children]; field writes only, so
   nothing is allocated. *)
let rec accumulate n = function
  | [] -> ()
  | c :: rest ->
    n.count <- n.count + c.count;
    n.w.sum <- n.w.sum +. c.w.sum;
    accumulate n rest

(* Recompute [n]'s count and sum from its payload and children, unlink it
   from its parent when it emptied (relink it when it filled again), and
   repeat for every ancestor. *)
let rec refresh n =
  n.count <- (match n.payload with None -> 0 | Some _ -> 1);
  n.w.sum <- n.w.own;
  accumulate n n.children;
  match n.parent with
  | None -> ()
  | Some p ->
    if n.count = 0 then p.children <- List.filter (fun c -> c != n) p.children
    else if not (List.memq n p.children) then p.children <- n :: p.children;
    refresh p

let rec find_child c = function
  | [] -> None
  | n :: rest -> if n.choice = c then Some n else find_child c rest

(* The node at [path] below [n], created (linked, empty) where missing. *)
let rec descend_create n = function
  | [] -> n
  | c :: rest ->
    let child =
      match find_child c n.children with
      | Some child -> child
      | None ->
        let child = make c (Some n) in
        n.children <- child :: n.children;
        child
    in
    descend_create child rest

let add ?(weight = 0.0) ?at t path x =
  let n = descend_create (match at with Some n -> n | None -> t) path in
  n.payload <- Some x;
  n.w.own <- weight;
  refresh n

let rec find_node n = function
  | [] -> Some n
  | c :: rest -> (
    match find_child c n.children with None -> None | Some child -> find_node child rest)

let find t path = match find_node t path with Some n -> n.payload | None -> None

let take n =
  let p = n.payload in
  if Option.is_some p then begin
    n.payload <- None;
    n.w.own <- 0.0;
    refresh n
  end;
  p

let remove t path =
  match find_node t path with
  | Some n -> Option.is_some (take n)
  | None -> false

(* Random-path descent (KLEE's strategy, paper section 7): from the root,
   choose uniformly among "the payload here" and each child (every linked
   child is non-empty). *)
let rec random_pick rng n =
  let here = match n.payload with None -> 0 | Some _ -> 1 in
  let options = here + List.length n.children in
  if options = 0 then n
  else
    let k = Random.State.int rng options in
    if k < here then n else random_pick rng (List.nth n.children (k - here))

(* Weighted descent: lay the payload weights end to end in preorder (a
   node's own payload, then its children in list order) and return the
   node whose span holds [target].  A target at or past the end (float
   slack) clamps to the last child with a positive sum. *)
let rec pick t ~target =
  if target < t.w.own then t else scan t (target -. t.w.own) t.children t

and scan n target children last =
  match children with
  | [] -> if last == n then n else pick last ~target:last.w.sum
  | c :: rest ->
    if target < c.w.sum then pick c ~target
    else scan n (target -. c.w.sum) rest (if c.w.sum > 0.0 then c else last)

(* Preorder, the order {!pick} lays the weights out in. *)
let rec fold f n acc =
  let acc = match n.payload with Some x -> f x acc | None -> acc in
  List.fold_left (fun acc c -> fold f c acc) acc n.children

(* Nodes plus edges of the trie skeleton: the byte size of a preorder
   serialization with one structure byte per node and one choice byte per
   edge. *)
let structure_size t =
  let rec count n = List.fold_left (fun acc child -> acc + 1 + count child) 1 n.children in
  count t

(* Every node's count and weight sum against a recomputation from scratch,
   and every linked non-root node non-empty (property tests). *)
let well_formed t =
  let rec check n =
    let count, sum =
      List.fold_left
        (fun (k, s) c ->
          let k', s' = check c in
          (k + k', s +. s'))
        ((if Option.is_none n.payload then 0 else 1), n.w.own)
        n.children
    in
    if
      count <> n.count || sum <> n.w.sum
      || (Option.is_none n.payload && n.w.own <> 0.0)
      || (n != t && n.count = 0)
      || List.exists (fun c -> match c.parent with Some p -> p != n | None -> true) n.children
    then raise Exit;
    (count, sum)
  in
  match check t with _ -> true | exception Exit -> false
