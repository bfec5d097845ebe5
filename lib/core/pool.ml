open Crypto

(* One process-wide pool of helper domains, started lazily and kept for
   the life of the process.

   Two kinds of work share it:
   - batches: the chunks of a [map] (or a [background] task). The caller
     publishes the batch, then claims chunks itself from the same atomic
     counter as the helpers; it only ever waits for chunks a helper has
     already started. A saturated process (every helper busy) therefore
     runs the whole batch inline: no oversubscription, and nested or
     concurrent maps cannot deadlock.
   - jobs: fire-and-forget closures ([async]) — serve-s1's queries
     (Core.Service), serve-s2's noise refills. A helper takes a job only
     when no published batch wants a seat, so compute chunks go ahead of
     queued jobs.

   Locking: [st.lock] guards the batch list, the job queue, the helper
   set and every batch's seat count; chunk claims and completions are
   atomics. Callers of [async] may hold their own lock (Service does), so
   this module never calls out while holding [st.lock], except
   Domain.spawn. *)

type batch = {
  chunks : int;
  run_chunk : int -> unit;  (* never raises *)
  next : int Atomic.t;  (* next unclaimed chunk *)
  finished : int Atomic.t;  (* chunks run to completion *)
  mutable seats : int;  (* helpers that may still join (under st.lock) *)
  done_c : Condition.t;  (* broadcast under st.lock when finished = chunks *)
}

type state = {
  lock : Mutex.t;
  work : Condition.t;  (* a batch or a job was published *)
  mutable batches : batch list;  (* published, possibly with unclaimed chunks *)
  jobs : (unit -> unit) Queue.t;
  mutable helpers : int;  (* live helper domains; they never exit *)
  mutable reserved : int;  (* helpers promised to long-lived users (Service) *)
}

let st =
  {
    lock = Mutex.create ();
    work = Condition.create ();
    batches = [];
    jobs = Queue.create ();
    helpers = 0;
    reserved = 0;
  }

(* The widest batch the pool spawns helpers for. *)
let width_cap = 64

(* ---- running chunks ---- *)

let claimable b = Atomic.get b.next < b.chunks

let run_chunks b =
  let rec go () =
    let i = Atomic.fetch_and_add b.next 1 in
    if i < b.chunks then begin
      b.run_chunk i;
      if Atomic.fetch_and_add b.finished 1 = b.chunks - 1 then begin
        Mutex.lock st.lock;
        Condition.broadcast b.done_c;
        Mutex.unlock st.lock
      end;
      go ()
    end
  in
  go ()

(* Under st.lock: a published batch with unclaimed chunks and a free
   seat, taking the seat; drained batches leave the list on the way. *)
let take_seat () =
  st.batches <- List.filter claimable st.batches;
  match List.find_opt (fun b -> b.seats > 0) st.batches with
  | Some b ->
    b.seats <- b.seats - 1;
    Some b
  | None -> None

let helper () =
  Mutex.lock st.lock;
  let rec loop () =
    match take_seat () with
    | Some b ->
      Mutex.unlock st.lock;
      run_chunks b;
      Mutex.lock st.lock;
      loop ()
    | None -> (
      match Queue.take_opt st.jobs with
      | Some job ->
        Mutex.unlock st.lock;
        (try job () with _ -> ());
        Mutex.lock st.lock;
        loop ()
      | None ->
        Condition.wait st.work st.lock;
        loop ())
  in
  loop ()

(* Under st.lock: enough helper domains for a batch admitting [n] of them
   (capped by [width_cap]) and for every helper promised by [reserve].
   Domain.spawn can fail (OCaml caps a process at 128 live domains): the
   pool then works with what it has — callers run their own chunks. *)
let ensure_helpers n =
  let want = max (min n (width_cap - 1)) st.reserved in
  let rec spawn () =
    if st.helpers < want then
      match Domain.spawn helper with
      | (_ : unit Domain.t) ->
        st.helpers <- st.helpers + 1;
        spawn ()
      | exception _ -> ()
  in
  spawn ()

let publish ~seats ~chunks run_chunk =
  let b =
    {
      chunks;
      run_chunk;
      next = Atomic.make 0;
      finished = Atomic.make 0;
      seats;
      done_c = Condition.create ();
    }
  in
  if seats > 0 then begin
    Mutex.lock st.lock;
    ensure_helpers seats;
    st.batches <- st.batches @ [ b ];
    Condition.broadcast st.work;
    Mutex.unlock st.lock
  end;
  b

(* The caller's half: claim whatever is left, unpublish the batch (it
   holds the results), then wait for chunks that helpers are still
   running. *)
let finish b =
  run_chunks b;
  Mutex.lock st.lock;
  st.batches <- List.filter (fun b' -> b' != b) st.batches;
  while Atomic.get b.finished < b.chunks do
    Condition.wait b.done_c st.lock
  done;
  Mutex.unlock st.lock

(* ---- observability: a private collector per chunk ---- *)

(* When the caller has a collector, every chunk runs under a fresh one;
   they merge back in chunk order, so counters and span trees are the
   same as running the chunks inline in order, at any width. *)
let chunk_collectors chunks =
  match Obs.current () with
  | None -> None
  | Some parent -> Some (parent, Array.init chunks (fun _ -> Obs.Collector.create ()))

let under cols c f =
  match cols with None -> f () | Some (_, cs) -> Obs.with_collector cs.(c) f

let merge_collectors cols =
  Option.iter
    (fun (parent, cs) -> Array.iter (fun c -> Obs.Collector.merge_into c ~into:parent) cs)
    cols

let reraise_first errors =
  Array.iter (function Some (e, bt) -> Printexc.raise_with_backtrace e bt | None -> ()) errors

(* ---- public API ---- *)

let map ~domains ~jobs f =
  if jobs < 0 then invalid_arg "Pool.map: jobs < 0";
  if domains <= 1 || jobs <= 1 then begin
    (* explicit loop: index order is part of the contract *)
    if jobs = 0 then [||]
    else begin
      let out = Array.make jobs (f 0) in
      for i = 1 to jobs - 1 do
        out.(i) <- f i
      done;
      out
    end
  end
  else begin
    (* one chunk per index: every task this pool runs costs a modular
       exponentiation or more, so per-claim overhead is noise and
       one-at-a-time claiming balances best *)
    let results = Array.make jobs None in
    let errors = Array.make jobs None in
    let cols = chunk_collectors jobs in
    let run_chunk i =
      try under cols i (fun () -> results.(i) <- Some (f i))
      with e -> errors.(i) <- Some (e, Printexc.get_raw_backtrace ())
    in
    finish (publish ~seats:(min (domains - 1) (jobs - 1)) ~chunks:jobs run_chunk);
    merge_collectors cols;
    reraise_first errors;
    Array.map Option.get results
  end

let map_list ~domains f xs =
  let a = Array.of_list xs in
  Array.to_list (map ~domains ~jobs:(Array.length a) (fun i -> f a.(i)))

type 'a task = {
  batch : batch;
  result : ('a, exn * Printexc.raw_backtrace) result option ref;
  cols : (Obs.Collector.t * Obs.Collector.t array) option;
}

let background f =
  let result = ref None in
  let cols = chunk_collectors 1 in
  let run_chunk _ =
    result :=
      Some
        (try Ok (under cols 0 f)
         with e -> Error (e, Printexc.get_raw_backtrace ()))
  in
  { batch = publish ~seats:1 ~chunks:1 run_chunk; result; cols }

let await t =
  finish t.batch;
  merge_collectors t.cols;
  match Option.get !(t.result) with
  | Ok v -> v
  | Error (e, bt) -> Printexc.raise_with_backtrace e bt

let async job =
  Mutex.lock st.lock;
  ensure_helpers 1;
  Queue.add job st.jobs;
  Condition.signal st.work;
  Mutex.unlock st.lock

let reserve n =
  if n < 0 then invalid_arg "Pool.reserve: n < 0";
  Mutex.lock st.lock;
  st.reserved <- st.reserved + n;
  ensure_helpers 0;
  (* a service whose workers cannot start would accept jobs that never
     run: refuse it up front *)
  let short = st.helpers < st.reserved in
  if short then st.reserved <- st.reserved - n;
  Mutex.unlock st.lock;
  if short then failwith "Pool.reserve: cannot start helper domains"

let release n =
  Mutex.lock st.lock;
  st.reserved <- max 0 (st.reserved - n);
  Mutex.unlock st.lock

(* Explicit loop: forking mutates the parent generator, so the order of
   forks is part of the determinism contract (Array.init's evaluation
   order is unspecified). *)
let fork_rngs rng ~jobs =
  let rngs = Array.make jobs rng in
  for i = 0 to jobs - 1 do
    rngs.(i) <- Rng.fork rng ~label:("par:" ^ string_of_int i)
  done;
  rngs

let map_rng rng ~domains ~jobs f =
  let rngs = fork_rngs rng ~jobs in
  map ~domains ~jobs (fun i -> f rngs.(i) i)
