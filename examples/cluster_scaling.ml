(* Cluster-parallel symbolic execution: "throwing hardware at the
   problem" (paper sections 3 and 7.2).

   The same exhaustive symbolic test — all behaviors of mini-memcached on
   a symbolic packet — runs on simulated clusters of increasing size.
   Virtual time to completion should roughly halve with each doubling of
   workers, and per-worker useful work should stay flat, with the dynamic
   load balancer moving jobs between workers throughout the run.

     dune exec examples/cluster_scaling.exe *)

module C = Core.Cloud9

let () =
  let target =
    match Core.Registry.resolve ~name:"memcached" ~variant:(Some "sym-packets-2") with
    | Some t -> t
    | None -> failwith "memcached target missing"
  in
  Format.printf "Exhaustive symbolic test of %s on growing clusters@." target.C.name;
  Format.printf "%8s %12s %10s %14s %12s@." "workers" "virtual time" "paths" "useful instrs"
    "transferred";
  let base_time = ref 0 in
  List.iter
    (fun nworkers ->
      let r =
        C.run_cluster
          ~options:
            {
              C.default_cluster_options with
              C.nworkers;
              speed = 300;
              status_interval = 5;
              latency = 2;
            }
          target
      in
      if nworkers = 1 then base_time := r.Cluster.Outcome.ticks;
      Format.printf "%8d %12d %10d %14d %12d   (speedup %.1fx)@." nworkers
        r.Cluster.Outcome.ticks r.Cluster.Outcome.total_paths r.Cluster.Outcome.useful_instrs
        r.Cluster.Outcome.transfers
        (float_of_int !base_time /. float_of_int r.Cluster.Outcome.ticks))
    [ 1; 2; 4; 8 ];
  Format.printf "@.Every run explores the same global execution tree: identical path counts,@.";
  Format.printf "split dynamically across workers by the load balancer.@."
