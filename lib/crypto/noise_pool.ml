open Bignum

(* A pool of precomputed re-randomization noise (r^n mod n^2 for
   Paillier, r^{n^2} mod n^3 for Damgard-Jurik): the one modular
   exponentiation of a re-randomization moves off the query path, leaving
   a single modular multiplication per call.

   Determinism: values are drawn sequentially from the pool's root
   generator and produced strictly in index order (production is
   serialized by the [producing] flag), so value [i] is a pure function
   of the root seed and the stream a protocol run sees does not depend
   on whether (or how far ahead) the background filler ran. Whoever
   produces (a refill job or a starved consumer) owns the root
   generator for the duration of its draw, and results enter the FIFO
   in index order.

   The generator runs under a throwaway Obs collector: precomputation
   cost must not surface in a protocol's counters at a timing-dependent
   place. Consumption is accounted instead — one [Rerand_pool] bump per
   [take].

   The filler is a chain of refill jobs handed to a caller-supplied
   [submit] (the daemon's compute pool): each job banks one value and
   re-submits itself while the pool is below its low-water mark, so
   refills never hold a domain of their own and queue behind the
   daemon's compute chunks. *)

type t = {
  gen : Rng.t -> Nat.t;
  root : Rng.t;
  mutex : Mutex.t;
  cond : Condition.t;
  values : Nat.t Queue.t;
  mutable producing : bool;
  depth : int; (* filler keeps at least this many values banked *)
  mutable submit : ((unit -> unit) -> unit) option; (* filler on *)
  mutable queued : bool; (* a refill job is submitted and not yet run *)
  mutable refilling : bool; (* a refill job is running *)
}

let create ?(depth = 64) rng ~label gen =
  {
    gen;
    root = Rng.fork rng ~label;
    mutex = Mutex.create ();
    cond = Condition.create ();
    values = Queue.create ();
    producing = false;
    depth;
    submit = None;
    queued = false;
    refilling = false;
  }

(* Requires the lock held and [producing = false]; computes the next
   value with the lock released, pushes it, returns with the lock held.
   The [producing] flag gives the producer exclusive ownership of the
   root generator while the lock is down. *)
let produce_locked t =
  t.producing <- true;
  Mutex.unlock t.mutex;
  let v = Obs.with_collector (Obs.Collector.create ()) (fun () -> t.gen t.root) in
  Mutex.lock t.mutex;
  Queue.push v t.values;
  t.producing <- false;
  Condition.broadcast t.cond

(* Under the lock: the refill job to submit once the lock is released,
   if the filler is on, below its mark and not already queued or
   running. *)
let claim_refill t =
  match t.submit with
  | Some submit
    when Queue.length t.values < t.depth && not (t.queued || t.refilling) ->
    t.queued <- true;
    Some submit
  | _ -> None

let rec refill t () =
  Mutex.lock t.mutex;
  t.queued <- false;
  (* a starved consumer may be producing: it owns the generator *)
  while t.producing do
    Condition.wait t.cond t.mutex
  done;
  if t.submit <> None && Queue.length t.values < t.depth then begin
    t.refilling <- true;
    produce_locked t;
    t.refilling <- false;
    Condition.broadcast t.cond
  end;
  let next = claim_refill t in
  Mutex.unlock t.mutex;
  Option.iter (fun submit -> submit (refill t)) next

let take t =
  Obs.bump Obs.Metrics.Rerand_pool;
  Mutex.lock t.mutex;
  let rec next () =
    if not (Queue.is_empty t.values) then begin
      let v = Queue.pop t.values in
      (* below the low-water mark again: queue a refill *)
      let kick = claim_refill t in
      Mutex.unlock t.mutex;
      Option.iter (fun submit -> submit (refill t)) kick;
      v
    end
    else if t.producing then begin
      Condition.wait t.cond t.mutex;
      next ()
    end
    else begin
      produce_locked t;
      next ()
    end
  in
  next ()

let prefill t n =
  Mutex.lock t.mutex;
  while Queue.length t.values < n do
    if t.producing then Condition.wait t.cond t.mutex else produce_locked t
  done;
  Mutex.unlock t.mutex

let banked t =
  Mutex.lock t.mutex;
  let n = Queue.length t.values in
  Mutex.unlock t.mutex;
  n

let start_filler t ~submit =
  Mutex.lock t.mutex;
  t.submit <- Some submit;
  let kick = claim_refill t in
  Mutex.unlock t.mutex;
  Option.iter (fun submit -> submit (refill t)) kick

let quiesce t =
  Mutex.lock t.mutex;
  t.submit <- None;
  while t.refilling do
    Condition.wait t.cond t.mutex
  done;
  Mutex.unlock t.mutex
