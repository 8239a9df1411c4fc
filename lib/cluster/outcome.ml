type frontier_export = {
  fx_jobs : Job.t list;
  fx_bans : Job.t list;
}

type bucket = {
  b_start_tick : int;
  mutable transferred : int;
  mutable candidates : int;
  mutable cand_sum : int;
  mutable cand_samples : int;
  mutable useful : int;
  mutable coverage : float;
}

type t = {
  ticks : int;
  reached_goal : bool;
  total_paths : int;
  total_errors : int;
  useful_instrs : int;
  replay_instrs : int;
  broken_replays : int;
  recovery_replay_instrs : int;
  jobs_sent : int;
  jobs_received : int;
  transfers : int;
  steals : int;
  crashes : int;
  recovered_jobs : int;
  retransmits : int;
  coverage_vector : Bytes.t;
  final_coverage : float;
  per_worker_useful : (int * int) list;
  solver_stats : Smt.Solver.stats;
  per_worker_solver : (int * Smt.Solver.stats) list;
  buckets : bucket list;
  export : frontier_export option;
}

let make ~transport ~live ~dead ~coverable ~ticks ~reached_goal ~transfers ~steals ~buckets
    ~frontier =
  let all = List.fold_left Worker.add_tally (Worker.empty_tally ()) (dead @ List.map snd live) in
  let live_sum f = List.fold_left (fun acc (_, t) -> acc + f t) 0 live in
  {
    ticks;
    reached_goal;
    total_paths = Transport.credit_paths transport + live_sum (fun t -> t.Worker.paths);
    total_errors = Transport.credit_errors transport + live_sum (fun t -> t.Worker.errors);
    useful_instrs = all.Worker.useful;
    replay_instrs = all.Worker.replay;
    broken_replays = all.Worker.broken;
    recovery_replay_instrs = all.Worker.recovery_replay;
    jobs_sent = all.Worker.sent;
    jobs_received = all.Worker.received;
    transfers;
    steals;
    crashes = Transport.crashes transport;
    recovered_jobs = Transport.recovered_jobs transport;
    retransmits = Transport.retransmits transport;
    coverage_vector = all.Worker.coverage;
    final_coverage = Engine.Coverage.fraction ~coverable all.Worker.coverage;
    per_worker_useful = List.map (fun (i, t) -> (i, t.Worker.useful)) live;
    solver_stats = all.Worker.solver;
    per_worker_solver = List.map (fun (i, t) -> (i, t.Worker.solver)) live;
    buckets;
    export =
      Option.map (fun jobs -> { fx_jobs = jobs; fx_bans = Transport.bans transport }) frontier;
  }
