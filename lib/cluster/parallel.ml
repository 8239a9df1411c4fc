(* True-multicore cluster runtime: one OCaml domain per worker.

   The simulated [Driver] remains the deterministic reference; this
   runtime trades its virtual clock for real [Domain.t]s so wall-clock
   scaling (paper Figs. 7-8) is measurable — and, since the fault
   tolerance core moved into the shared {!Transport}, it now survives
   the same fault model: Faultplan-driven domain crashes (crash-stop
   with amnesia, observed at slice poll points), mid-run rejoins on a
   fresh domain, and seeded loss / delay / duplication on the job wire,
   all recovered exactly through the same {!Ledger} lease protocol the
   simulation uses.  The moving parts:

   - Each worker domain owns a real [Worker.t] (created *inside* the
     domain by [make_worker], so domain-local solver state lands on the
     right domain) and a bounded mutex+condition mailbox.  Worker-bound
     messages: leased job batches, transfer (steal) requests, ban lists,
     merged-coverage feedback, a wake-up poke, and stop.

   - The coordinator runs on the calling domain and is the only thread
     that touches the transport/ledger.  Workers never ship jobs to each
     other directly any more: a steal victim *offers* its batch back to
     the coordinator, which leases it ({!Transport.issue_transfer}) and
     forwards it — so every batch in flight is covered by a lease and a
     crash anywhere loses nothing.  Receivers deduplicate by lease id
     and acknowledge every delivery (at-least-once, exactly-once
     import).

   - Time: a ticker domain pushes [Tick] into the coordinator mailbox
     every [tick_period] seconds.  Ticks drive the fault schedule,
     delayed-message delivery, lease retransmission/eviction sweeps
     ({!Transport.tick}), heartbeat failure detection, and the progress
     watchdog.  Ticks also bound every coordinator block: even with all
     workers dead, the loop keeps waking.

   - Crash-stop: a crash is *declared* first (slot marked dead, its
     later messages filtered, its leases orphaned and re-seeded via
     {!Transport.handle_crash}) and only then observed by the victim,
     which polls an atomic crash flag between slices and exits with
     amnesia.  Declare-then-kill makes even a false-positive detection
     exact: everything the victim did after its last status report is
     discarded and replayed elsewhere.

   - Quiescence: the coordinator tracks per-slot idleness from status
     reports.  Mailboxes are FIFO per sender, so an [Offer] always
     precedes the idle report that follows giving work away, and an
     [Ack] (which clears the receiver's idle bit) always precedes the
     receiver's next idle report.  "Every live slot idle with no steal
     outstanding, no delayed message, and the transport quiesced" can
     therefore never hold while work exists anywhere.  Dead slots are
     exempt, so a run whose crashed workers never rejoin still
     terminates — with exactly the fault-free totals.

   Deadlock-freedom: workers block only on (a) their own empty mailbox
   when idle — any push, including the crash-time [Poke], wakes them —
   and (b) bounded pushes.  The coordinator never blocks forever on a
   full mailbox of a dead worker: every coordinator->worker push is
   [push_timeout]-bounded, and a timed-out job push is simply a lost
   message for the lease layer to retransmit. *)

module Executor = Engine.Executor

(* ---- mailbox ------------------------------------------------------ *)

module Mailbox = struct
  type 'a t = {
    lock : Mutex.t;
    nonempty : Condition.t;
    nonfull : Condition.t;
    q : 'a Queue.t;
    cap : int;
  }

  let create ~cap () =
    {
      lock = Mutex.create ();
      nonempty = Condition.create ();
      nonfull = Condition.create ();
      q = Queue.create ();
      cap;
    }

  (* Non-blocking push; [false] when the mailbox is full. *)
  let try_push t x =
    Mutex.lock t.lock;
    let ok = Queue.length t.q < t.cap in
    if ok then begin
      Queue.add x t.q;
      Condition.signal t.nonempty
    end;
    Mutex.unlock t.lock;
    ok

  (* Bounded blocking push: retry for at most [timeout] seconds, then
     give up.  The stdlib [Condition] has no timed wait, so this polls —
     acceptable because the slow path only runs when the receiver is
     wedged or dead, which is exactly when we must not block forever.
     [false] = the message was not enqueued. *)
  let push_timeout t x ~timeout =
    if try_push t x then true
    else begin
      let deadline = Unix.gettimeofday () +. timeout in
      let rec go () =
        if try_push t x then true
        else if Unix.gettimeofday () >= deadline then false
        else begin
          Unix.sleepf 0.0005;
          go ()
        end
      in
      go ()
    end

  let drain_locked t =
    let xs = ref [] in
    while not (Queue.is_empty t.q) do
      xs := Queue.pop t.q :: !xs
    done;
    Condition.broadcast t.nonfull;
    List.rev !xs

  (* Non-blocking drain: everything queued right now, oldest first. *)
  let drain t =
    Mutex.lock t.lock;
    let xs = drain_locked t in
    Mutex.unlock t.lock;
    xs

  (* Blocking drain: waits until at least one message is queued. *)
  let drain_wait t =
    Mutex.lock t.lock;
    while Queue.is_empty t.q do
      Condition.wait t.nonempty t.lock
    done;
    let xs = drain_locked t in
    Mutex.unlock t.lock;
    xs
end

(* ---- messages ----------------------------------------------------- *)

(* [issued_ns] carries the wall-clock stamp of the Steal that caused a
   job batch (0 when unprofiled or on retransmit): the coordinator
   stamps the request, the victim copies the stamp onto its offer, and
   the thief closes the span on import — a full steal round-trip. *)
type wmsg =
  | Jobs of { lease : int; encoded : string; recovery : bool; issued_ns : int }
      (** a leased batch in {!Job.encode_batch} form (prefix handoff):
          the receiver decodes, replays the shared prefix once and forks
          the suffixes.  Receivers dedup by lease id and always ack *)
  | Steal of { dst : int; count : int; issued_ns : int }
      (** balancer transfer request; always answered with an [Offer] *)
  | Bans of Job.t list  (** nodes a crashed worker had handed away *)
  | Coverage of Bytes.t  (** merged global coverage overlay *)
  | Poke  (** contentless wake-up, so a blocked idle worker re-polls its crash flag *)
  | Stop

type cmsg =
  | Status of {
      worker : int;
      incarnation : int;
      queue_len : int;
      idle : bool;
      coverage : Bytes.t;
      digest : Job.t list;  (** frontier digest: the worker's durable recovery point *)
      paths : int;
      errors : int;
      received : int list;  (** cumulative lease ids imported (ack piggyback) *)
    }
  | Offer of { worker : int; incarnation : int; dst : int; jobs : Job.t list; issued_ns : int }
      (** a steal victim returning the batch for leasing; empty = nothing to give *)
  | Ack of { worker : int; incarnation : int; lease : int }
  | Failed of { worker : int; incarnation : int; error : string }
      (** the worker's domain died on an exception (reported, then joined) *)
  | Tick  (** from the ticker domain: advance coordinator time *)

(* ---- configuration ------------------------------------------------ *)

type 'env config = {
  ndomains : int;
  make_worker : int -> 'env Worker.t;
  faults : Faultplan.t;
  obs : Obs.Sink.t option;
      (* when set, the runtime itself is profiled: mailbox waits, steal
         round-trips and (recovery) replays per worker domain, quiescence
         rounds on the coordinator (through a buffered lb-attributed view) *)
}

let default_config ?obs ?(faults = Faultplan.none) ~ndomains ~make_worker () =
  { ndomains; make_worker; faults; obs }

type result = Outcome.t

(* Runtime constants.  Instructions a worker executes between mailbox
   polls, and slices between its status reports while busy: *)
let slice = 2_000
let status_every = 4

(* Bound on each mailbox, in messages. *)
let mailbox_capacity = 4_096

(* Seconds between coordinator ticks: the unit of the fault schedule,
   lease timeouts and heartbeat intervals. *)
let tick_period = 0.001

(* Seconds the coordinator waits on a full worker mailbox before treating
   the push as a lost message. *)
let push_timeout = 1.0

(* Seconds without coordinator progress before the run aborts with a
   state dump. *)
let watchdog = 120.0

(* ---- worker domain ------------------------------------------------ *)

(* How long a worker will wait to push into the coordinator's mailbox
   before concluding the coordinator has stopped draining (shutdown).
   During a run the coordinator drains continuously, so this never
   fires; at shutdown it prevents a worker from wedging [Domain.join]. *)
let ctl_timeout = 5.0

let worker_body (cfg : 'env config) ~coord ~inbox ~crash ~id:i ~incarnation ~initial_bans ~seed
    =
  try
    let w = cfg.make_worker i in
    Fun.protect
      ~finally:(fun () -> Option.iter Obs.Sink.flush w.Worker.cfg.Executor.obs)
      (fun () ->
        (* Runtime spans go through the worker's own (buffered) view when
           it has one, so they merge on the same flush path as everything
           else. *)
        let prof = Option.map Obs.Profile.create w.Worker.cfg.Executor.obs in
        if initial_bans <> [] then Worker.ban_paths w initial_bans;
        if seed then Worker.seed_root w;
        (* lease ids already imported: dedup for at-least-once delivery,
           and the cumulative ack piggybacked on every status report *)
        let imported : (int, unit) Hashtbl.t = Hashtbl.create 32 in
        let imported_list = ref [] in
        let stop = ref false in
        let crashed () = Atomic.get crash in
        let send_ctl msg = ignore (Mailbox.push_timeout coord msg ~timeout:ctl_timeout) in
        let send_status ~idle =
          let tally = Worker.tally w in
          send_ctl
            (Status
               {
                 worker = i;
                 incarnation;
                 queue_len = Worker.queue_length w;
                 idle;
                 coverage = Bytes.copy w.Worker.cfg.Executor.coverage;
                 digest = Worker.digest_paths w;
                 paths = tally.Worker.paths;
                 errors = tally.Worker.errors;
                 received = !imported_list;
               })
        in
        let process = function
          | Jobs { lease; encoded; recovery; issued_ns } ->
            if not (Hashtbl.mem imported lease) then begin
              Hashtbl.replace imported lease ();
              imported_list := lease :: !imported_list;
              (match Job.decode_batch encoded with
              | Ok b -> Worker.receive_batch ~recovery w b
              | Error e -> failwith ("Parallel: corrupt job batch: " ^ e));
              if issued_ns > 0 then
                ignore (Obs.Profile.record prof Obs.Profile.Steal_rtt ~start_ns:issued_ns)
            end;
            (* always (re)acknowledge: the previous ack may have been lost *)
            send_ctl (Ack { worker = i; incarnation; lease })
          | Steal { dst; count; issued_ns } ->
            let jobs = Worker.transfer_out w ~count in
            (* even an empty offer must go back: it settles the
               coordinator's outstanding-steal accounting.  If the push
               times out (coordinator gone: shutdown), take the batch
               back — the nodes are fenced here, so re-importing replays
               them.  That replay is failure-path cost, not ordinary
               rebalancing, so it books as recovery — the same class as
               reconstructing a crashed worker's orphans. *)
            if
              not
                (Mailbox.push_timeout coord
                   (Offer { worker = i; incarnation; dst; jobs; issued_ns })
                   ~timeout:ctl_timeout)
            then if jobs <> [] then Worker.receive_jobs ~recovery:true w jobs
          | Bans paths -> Worker.ban_paths w paths
          | Coverage global -> ignore (Executor.merge_coverage w.Worker.cfg global)
          | Poke -> ()
          | Stop -> stop := true
        in
        let slices = ref 0 in
        while (not !stop) && not (crashed ()) do
          if Worker.is_idle w then begin
            (* Declare idleness with the mailbox lock held, so a
               concurrent push either lands before the emptiness check
               (we consume it without sleeping) or signals us awake. *)
            Mutex.lock inbox.Mailbox.lock;
            let wait_t0 =
              if Queue.is_empty inbox.Mailbox.q then begin
                Mutex.unlock inbox.Mailbox.lock;
                send_status ~idle:true;
                let t0 = Obs.Profile.start prof in
                Mutex.lock inbox.Mailbox.lock;
                while Queue.is_empty inbox.Mailbox.q do
                  Condition.wait inbox.Mailbox.nonempty inbox.Mailbox.lock
                done;
                t0
              end
              else 0
            in
            let msgs = Mailbox.drain_locked inbox in
            Mutex.unlock inbox.Mailbox.lock;
            (* Record after releasing the inbox lock: staging the span may
               trigger a threshold flush, which takes the obs core lock. *)
            if wait_t0 > 0 then
              ignore (Obs.Profile.record prof Obs.Profile.Mailbox_wait ~start_ns:wait_t0);
            (* crash-stop with amnesia: a declared victim processes
               nothing more — its unimported messages are already covered
               by leases or recovery *)
            if not (crashed ()) then List.iter process msgs
          end
          else begin
            List.iter process (Mailbox.drain inbox);
            if (not !stop) && (not (crashed ())) && not (Worker.is_idle w) then begin
              ignore (Worker.execute w ~budget:slice);
              incr slices;
              if !slices mod status_every = 0 then send_status ~idle:false
            end
          end
        done;
        Worker.tally ~snapshots:true w)
  with e ->
    (* A worker that dies mid-run (e.g. raising during replay) must still
       let [Domain.join] complete and the coordinator learn of the death:
       report the exception through the control mailbox and return an
       empty tally.  The coordinator treats [Failed] as a crash
       declaration, so the slot's leases recover exactly as if the
       fault plan had killed it. *)
    (try
       ignore
         (Mailbox.push_timeout coord
            (Failed { worker = i; incarnation; error = Printexc.to_string e })
            ~timeout:ctl_timeout)
     with _ -> ());
    Worker.empty_tally ()

(* ---- coordinator -------------------------------------------------- *)

(* Coordinator-side view of one worker slot.  The inbox and crash flag
   are per-incarnation: a rejoin replaces both, so late messages from
   (and deliveries to) a dead incarnation can never reach the fresh
   one. *)
type slot = {
  s_id : int;
  mutable s_inbox : wmsg Mailbox.t;
  mutable s_crash : bool Atomic.t;
  mutable s_incarnation : int;
  mutable s_dead : bool;  (* declared crashed and not (yet) rejoined *)
  mutable s_idle : bool;  (* from the last processed status / ack *)
  mutable s_queue_len : int;
  mutable s_pending_steals : int;  (* steals pushed, offers not yet back *)
  mutable s_pending_jobs : int;
      (* jobs leased to this worker and not yet acknowledged: its idle
         reports meanwhile must not read as starvation, or the balancer
         raids another victim for a worker already being fed *)
  mutable s_last_heard : int;  (* tick of the last message from this incarnation *)
  mutable s_suspect : bool;  (* failure detector: one heartbeat interval silent *)
}

let run ~coverable_lines (cfg : 'env config) =
  if cfg.ndomains < 1 then invalid_arg "Parallel.run: ndomains must be >= 1";
  (match Faultplan.validate cfg.faults ~nworkers:cfg.ndomains with
  | Ok () -> ()
  | Error m -> invalid_arg ("Parallel.run: " ^ m));
  let n = cfg.ndomains in
  let faulty = not (Faultplan.is_faultless cfg.faults) in
  (* failure detector: a busy worker silent for one interval is suspected,
     for two is declared crashed (1 s at the 1 ms tick).  Only faulty runs
     enable it, so a false positive can never perturb a fault-free run. *)
  let heartbeat_ticks = if faulty then 1_000 else 0 in
  let frt = Faultplan.make cfg.faults in
  let coord = Mailbox.create ~cap:(mailbox_capacity * (n + 1)) () in
  let slots =
    Array.init n (fun i ->
        {
          s_id = i;
          s_inbox = Mailbox.create ~cap:mailbox_capacity ();
          s_crash = Atomic.make false;
          s_incarnation = 0;
          s_dead = false;
          s_idle = false;
          s_queue_len = 0;
          s_pending_steals = 0;
          s_pending_jobs = 0;
          s_last_heard = 0;
          s_suspect = false;
        })
  in
  let spawned = ref [] in (* (slot id, incarnation, domain), newest first *)
  let declared : (int * int, unit) Hashtbl.t = Hashtbl.create 8 in
  (* The coordinator profiles and emits through its own buffered
     lb-attributed view: it must never write the shared core while
     domains run, and the view is flushed after they have all joined. *)
  let cobs = Option.map (fun s -> Obs.Sink.buffered s Obs.Event.lb) cfg.obs in
  let cprof = Option.map Obs.Profile.create cobs in
  let emit ev = match cobs with None -> () | Some s -> Obs.Sink.event s ev in
  let stamp () = match cprof with Some _ -> Obs.Clock.now_ns () | None -> 0 in
  let now = ref 0 in
  let delayed = ref [] in (* (due_tick, dst, incarnation, wmsg) *)
  let transfers = ref 0 in
  let steals = ref 0 in
  let balancer = ref None in
  let issued_ns_hint = ref 0 in
  let transport_ref = ref None in
  (* last crash-or-rejoin tick in the plan: after it, an all-dead cluster
     can never revive, so the run may stop (graceful degradation) *)
  let horizon =
    List.fold_left
      (fun acc c ->
        let last =
          match c.Faultplan.rejoin_after with
          | Some d -> c.Faultplan.at_tick + d
          | None -> c.Faultplan.at_tick
        in
        max acc last)
      0 cfg.faults.Faultplan.crashes
  in
  let push_wire sl msg =
    (* a full mailbox on a wedged or dead worker must never block the
       coordinator: bounded push, overflow = the wire dropped it (the
       lease layer retransmits) *)
    ignore (Mailbox.push_timeout sl.s_inbox msg ~timeout:push_timeout)
  in
  (* in-flight lease sizes, to unwind s_pending_jobs when a lease is
     acknowledged (directly or via a report's piggybacked ack list) *)
  let pending_of_lease : (int, int * int) Hashtbl.t = Hashtbl.create 32 in
  let lease_settled lease =
    match Hashtbl.find_opt pending_of_lease lease with
    | None -> ()
    | Some (dst, count) ->
      Hashtbl.remove pending_of_lease lease;
      let sl = slots.(dst) in
      if not sl.s_dead then sl.s_pending_jobs <- max 0 (sl.s_pending_jobs - count)
  in
  let send_jobs ~src ~lease ~dst ~batch ~recovery ~resend =
    let sl = slots.(dst) in
    if not sl.s_dead then begin
      let issued_ns = if resend then 0 else !issued_ns_hint in
      issued_ns_hint := 0;
      if not resend then begin
        emit (Obs.Event.Job_transfer { lease; src; dst; count = Job.batch_size batch; recovery });
        Hashtbl.replace pending_of_lease lease (dst, Job.batch_size batch);
        sl.s_pending_jobs <- sl.s_pending_jobs + Job.batch_size batch
      end;
      let msg = Jobs { lease; encoded = Job.encode_batch batch; recovery; issued_ns } in
      if not faulty then push_wire sl msg
      else
        match Faultplan.fate frt ~tick:!now ~src ~dst with
        | Faultplan.Drop -> ()
        | Faultplan.Deliver 0 -> push_wire sl msg
        | Faultplan.Deliver extra ->
          delayed := (!now + extra, dst, sl.s_incarnation, msg) :: !delayed
        | Faultplan.Duplicate lag ->
          push_wire sl msg;
          delayed := (!now + lag, dst, sl.s_incarnation, msg) :: !delayed
    end
  in
  let live_workers () =
    Array.to_list slots
    |> List.filter_map (fun sl -> if sl.s_dead then None else Some (sl.s_id, sl.s_queue_len))
  in
  let install_bans bans =
    (* bans are the one worker-bound message that must not be silently
       lost (a live worker missing one could re-explore a transferred
       subtree), so a worker wedged enough to time the push out is
       declared crashed — which is itself exact *)
    let wedged = ref [] in
    Array.iter
      (fun sl ->
        if
          (not sl.s_dead)
          && not (Mailbox.push_timeout sl.s_inbox (Bans bans) ~timeout:push_timeout)
        then wedged := sl.s_id :: !wedged)
      slots;
    List.iter
      (fun i ->
        match !transport_ref with
        | Some tr -> Transport.handle_crash tr ~now:!now ~worker:i
        | None -> ())
      !wedged
  in
  let begin_crash ~worker:i =
    if i < 0 || i >= n then false
    else
      let sl = slots.(i) in
      if sl.s_dead then false
      else begin
        (* declare-then-kill: mark the slot dead (filtering everything
           this incarnation still sends), then raise the crash flag the
           victim polls between slices.  A Poke wakes it if it is
           blocked in its idle wait. *)
        sl.s_dead <- true;
        Hashtbl.replace declared (i, sl.s_incarnation) ();
        Atomic.set sl.s_crash true;
        ignore (Mailbox.try_push sl.s_inbox Poke);
        sl.s_pending_steals <- 0;
        sl.s_pending_jobs <- 0;
        sl.s_suspect <- false;
        (match !balancer with Some b -> Balancer.forget b ~worker:i | None -> ());
        emit (Obs.Event.Crash { worker = i });
        true
      end
  in
  let transport =
    Transport.create ?obs:cobs
      ~base_timeout:64 (* ticks: ~64 ms before the first retransmit *)
      { Transport.nworkers = n; send_jobs; install_bans; live_workers; begin_crash }
  in
  transport_ref := Some transport;
  let ledger = Transport.ledger transport in
  let spawn sl ~seed =
    let inbox = sl.s_inbox and crash = sl.s_crash in
    let incarnation = sl.s_incarnation in
    let initial_bans = Transport.bans transport in
    let d =
      Domain.spawn (fun () ->
          worker_body cfg ~coord ~inbox ~crash ~id:sl.s_id ~incarnation ~initial_bans ~seed)
    in
    spawned := (sl.s_id, incarnation, d) :: !spawned
  in
  Array.iter
    (fun sl ->
      emit (Obs.Event.Join { worker = sl.s_id });
      spawn sl ~seed:(sl.s_id = 0))
    slots;
  (* cover the root with a delivered lease, so a crash of worker 0
     before its first report re-seeds the whole tree *)
  Transport.seed_root transport ~dst:0 ~now:0;
  let ticker_stop = Atomic.make false in
  let ticker =
    Domain.spawn (fun () ->
        while not (Atomic.get ticker_stop) do
          ignore (Mailbox.try_push coord Tick);
          Unix.sleepf tick_period
        done)
  in
  let watchdog_fired = ref false in
  let last_progress = ref (Unix.gettimeofday ()) in
  let touch sl =
    sl.s_last_heard <- !now;
    sl.s_suspect <- false
  in
  let fate_drops ~src ~dst =
    faulty
    && match Faultplan.fate frt ~tick:!now ~src ~dst with Faultplan.Drop -> true | _ -> false
  in
  let get_balancer coverage =
    match !balancer with
    | Some b -> b
    | None ->
      let b = Balancer.create ~coverage_bytes:(Bytes.length coverage) ?obs:cobs () in
      balancer := Some b;
      b
  in
  let on_tick () =
    incr now;
    let t = !now in
    if faulty then begin
      List.iter
        (fun v -> Transport.handle_crash transport ~now:t ~worker:v)
        (Faultplan.crashes_at frt ~tick:t);
      List.iter
        (fun v ->
          if v >= 0 && v < n && slots.(v).s_dead then begin
            let sl = slots.(v) in
            (* fresh incarnation: new mailbox and crash flag, so nothing
               addressed to (or signed by) the dead one can cross over *)
            sl.s_inbox <- Mailbox.create ~cap:mailbox_capacity ();
            sl.s_crash <- Atomic.make false;
            sl.s_incarnation <- sl.s_incarnation + 1;
            sl.s_dead <- false;
            sl.s_idle <- false;
            sl.s_queue_len <- 0;
            sl.s_pending_steals <- 0;
            sl.s_pending_jobs <- 0;
            sl.s_last_heard <- t;
            sl.s_suspect <- false;
            emit (Obs.Event.Rejoin { worker = v });
            spawn sl ~seed:false
          end)
        (Faultplan.rejoins_at frt ~tick:t);
      let due, later = List.partition (fun (at, _, _, _) -> at <= t) !delayed in
      delayed := later;
      List.iter
        (fun (_, dst, inc, msg) ->
          let sl = slots.(dst) in
          if (not sl.s_dead) && sl.s_incarnation = inc then push_wire sl msg)
        due
    end;
    Transport.tick transport ~now:t;
    (* heartbeat failure detection: a busy worker that stops reporting is
       suspected after one interval and declared crashed after two.
       Idle workers are silent by design and exempt — jobs routed to a
       truly dead idle worker are caught by lease eviction instead. *)
    if heartbeat_ticks > 0 then
      Array.iter
        (fun sl ->
          if (not sl.s_dead) && not sl.s_idle then begin
            let silent = t - sl.s_last_heard in
            if silent > 2 * heartbeat_ticks then
              Transport.handle_crash transport ~now:t ~worker:sl.s_id
            else if silent > heartbeat_ticks then sl.s_suspect <- true
          end)
        slots;
    if (not !watchdog_fired) && Unix.gettimeofday () -. !last_progress > watchdog then begin
      watchdog_fired := true;
      Printf.eprintf
        "parallel: watchdog after %.0fs without progress: pending=%d parked=%d delayed=%d\n%!"
        watchdog (Ledger.pending ledger)
        (Transport.parked_orphans transport)
        (List.length !delayed);
      Array.iter
        (fun sl ->
          Printf.eprintf
            "  worker %d: inc=%d dead=%b idle=%b queue=%d pending_steals=%d last_heard=%d\n%!"
            sl.s_id sl.s_incarnation sl.s_dead sl.s_idle sl.s_queue_len sl.s_pending_steals
            sl.s_last_heard)
        slots
    end
  in
  let handle msg =
    (match msg with Tick -> () | _ -> last_progress := Unix.gettimeofday ());
    match msg with
    | Tick -> on_tick ()
    | Status { worker; incarnation; queue_len; idle; coverage; digest; paths; errors; received }
      ->
      let sl = slots.(worker) in
      if incarnation = sl.s_incarnation && not sl.s_dead then begin
        touch sl;
        sl.s_idle <- idle;
        sl.s_queue_len <- queue_len;
        (* the report is the worker's durable recovery point: digest +
           counters were snapshotted in-domain, so they are consistent *)
        Ledger.record_report ~received ledger ~worker ~tick:!now ~digest ~paths ~errors;
        List.iter lease_settled received;
        let b = get_balancer coverage in
        (* report queue + in-flight jobs: a worker already being fed must
           not classify as starved while the batch crosses the wire *)
        let global =
          Balancer.report ~tick:!now b ~worker
            ~queue_len:(queue_len + sl.s_pending_jobs)
            ~coverage
        in
        (* Coverage feedback only to busy workers: echoing it to an idle
           reporter would wake it for nothing, and the wake-report cycle
           would never quiesce. *)
        if not idle then ignore (Mailbox.try_push sl.s_inbox (Coverage global))
      end
    | Offer { worker; incarnation; dst; jobs; issued_ns } ->
      let sl = slots.(worker) in
      if incarnation = sl.s_incarnation && not sl.s_dead then begin
        touch sl;
        if sl.s_pending_steals > 0 then sl.s_pending_steals <- sl.s_pending_steals - 1;
        if jobs <> [] then begin
          (* the original thief may have died since the steal was issued:
             re-route to the least-loaded live worker (falling back to
             the victim itself — the nodes are fenced there, so going
             home is just another transfer).  A re-route is failure-path
             work: its replay books as recovery, like the timed-out
             Offer take-back and orphan re-seeding, so ordinary replay
             measures only the cost of successful rebalancing. *)
          let rerouted = not (dst >= 0 && dst < n && not slots.(dst).s_dead) in
          let dst =
            if not rerouted then dst
            else begin
              let best = ref worker and best_q = ref max_int in
              Array.iter
                (fun s2 ->
                  if (not s2.s_dead) && s2.s_id <> worker && s2.s_queue_len < !best_q then begin
                    best := s2.s_id;
                    best_q := s2.s_queue_len
                  end)
                slots;
              !best
            end
          in
          issued_ns_hint := issued_ns;
          ignore
            (Transport.issue_transfer transport ~recovery:rerouted ~src:worker ~dst ~jobs
               ~now:!now);
          issued_ns_hint := 0;
          transfers := !transfers + List.length jobs
        end
      end
    | Ack { worker; incarnation; lease } ->
      let sl = slots.(worker) in
      if incarnation = sl.s_incarnation && not sl.s_dead then begin
        touch sl;
        (* the fault plan may lose the ack in "transit": the lease then
           retransmits and the receiver's dedup re-acks *)
        if not (fate_drops ~src:worker ~dst:Faultplan.lb) then begin
          Ledger.mark_delivered ledger ~lease ~now:!now;
          lease_settled lease;
          (* the acking worker just imported work (or re-acked a dup; a
             still-idle worker re-reports idleness on its next wake) *)
          sl.s_idle <- false
        end
      end
    | Failed { worker; incarnation; error } ->
      let sl = slots.(worker) in
      if incarnation = sl.s_incarnation && not sl.s_dead then begin
        Printf.eprintf "parallel: worker %d died: %s\n%!" worker error;
        Transport.handle_crash transport ~now:!now ~worker
      end
  in
  let rebalance () =
    match !balancer with
    | None -> ()
    | Some b ->
      List.iter
        (fun { Balancer.src; dst; count } ->
          if
            src >= 0 && src < n && dst >= 0 && dst < n
            && (not slots.(src).s_dead)
            && (not slots.(dst).s_dead)
            (* one raid per victim at a time: until the Offer returns,
               another Steal would re-export the same queue estimate *)
            && slots.(src).s_pending_steals = 0
            (* and one feed per thief at a time: a destination with a
               lease still crossing the wire is not starving, whatever
               its last report said *)
            && slots.(dst).s_pending_jobs = 0
          then
            if not (fate_drops ~src:Faultplan.lb ~dst:src) then begin
              incr steals;
              if
                Mailbox.try_push slots.(src).s_inbox
                  (Steal { dst; count; issued_ns = stamp () })
              then slots.(src).s_pending_steals <- slots.(src).s_pending_steals + 1
            end)
        (Balancer.rebalance b)
  in
  let quiescent () =
    !delayed = []
    && Transport.quiesced transport
    && Array.exists (fun sl -> not sl.s_dead) slots
    && Array.for_all (fun sl -> sl.s_dead || (sl.s_idle && sl.s_pending_steals = 0)) slots
  in
  let all_dead_done () =
    (* every slot dead and no rejoin can revive the cluster: stop rather
       than spin forever (parked orphans are reported, not explored) *)
    Array.for_all (fun sl -> sl.s_dead) slots && !now > horizon
  in
  (* Rebalancing is throttled to a fixed tick cadence rather than run on
     every drain round: between two status reports the balancer's queue
     estimates cannot improve, so extra rounds only manufacture duplicate
     raids from the same stale numbers (each a future replay bill). *)
  let last_rebalance = ref 0 in
  let reached = ref false in
  let rec loop () =
    if quiescent () then reached := true
    else if all_dead_done () || !watchdog_fired then ()
    else begin
      (* One quiescence round = message drain (including the block on an
         empty coordinator mailbox — bounded by the next Tick) +
         rebalance. *)
      let round_t0 = Obs.Profile.start cprof in
      List.iter handle (Mailbox.drain_wait coord);
      if !now - !last_rebalance >= 32 then begin
        last_rebalance := !now;
        rebalance ()
      end;
      ignore (Obs.Profile.record cprof Obs.Profile.Quiesce_round ~start_ns:round_t0);
      loop ()
    end
  in
  loop ();
  Atomic.set ticker_stop true;
  (* stop the workers: live ones by message (falling back to the crash
     flag if their mailbox is wedged), dead ones are already
     crash-flagged — a Poke covers one blocked in its idle wait *)
  Array.iter
    (fun sl ->
      if sl.s_dead || !watchdog_fired then begin
        Atomic.set sl.s_crash true;
        ignore (Mailbox.try_push sl.s_inbox Poke)
      end
      else if not (Mailbox.push_timeout sl.s_inbox Stop ~timeout:(max 1.0 push_timeout))
      then begin
        Atomic.set sl.s_crash true;
        ignore (Mailbox.try_push sl.s_inbox Poke)
      end)
    slots;
  Domain.join ticker;
  let joined = List.rev_map (fun (i, inc, d) -> (i, inc, Domain.join d)) !spawned in
  Option.iter Obs.Sink.flush cobs;
  if !watchdog_fired then
    failwith "Parallel.run: watchdog fired — no coordinator progress; state dumped to stderr";
  (* paths/errors: live incarnations report themselves; declared ones
     are credited from their last ledger report, with everything after
     it redone (and counted) by whoever ran the recovery leases *)
  let live, dead =
    List.partition (fun (i, inc, _) -> not (Hashtbl.mem declared (i, inc))) joined
  in
  Outcome.make ~transport
    ~live:(List.map (fun (i, _, t) -> (i, t)) live)
    ~dead:(List.map (fun (_, _, t) -> t) dead)
    ~coverable:coverable_lines ~ticks:!now ~reached_goal:!reached ~transfers:!transfers
    ~steals:!steals ~buckets:[]
    ~frontier:(if !reached then Some [] else None)
