(* Persistent bounded worker pool: serve-s1's query executor. The
   workers are the process-wide Pool's helper domains ([Pool.reserve]),
   so an idle worker also takes compute chunks — ahead of queued queries
   — and a query's own [Pool.map]s spread onto the other workers. The
   service itself is only admission: at most [domains] jobs are handed to
   the pool at a time, the rest wait here in submission order, and
   overload surfaces as an immediate [`Busy] instead of unbounded
   queueing. *)

type t = {
  lock : Mutex.t;
  idle : Condition.t;  (* signalled when a job finishes *)
  waiting : (unit -> unit) Queue.t;  (* admitted, not yet handed to the pool *)
  queue_depth : int;
  domains : int;
  mutable running : int;  (* jobs handed to the pool and not yet finished *)
  mutable accepting : bool;
}

(* Call under [t.lock]. *)
let rec start t job =
  t.running <- t.running + 1;
  Pool.async (fun () ->
      (try job () with _ -> ());
      Mutex.lock t.lock;
      t.running <- t.running - 1;
      Option.iter (start t) (Queue.take_opt t.waiting);
      Condition.broadcast t.idle;
      Mutex.unlock t.lock)

let create ~domains ~queue_depth =
  if domains <= 0 then invalid_arg "Service.create: domains <= 0";
  if queue_depth < 0 then invalid_arg "Service.create: queue_depth < 0";
  Pool.reserve domains;
  {
    lock = Mutex.create ();
    idle = Condition.create ();
    waiting = Queue.create ();
    queue_depth;
    domains;
    running = 0;
    accepting = true;
  }

(* Admission: a job is taken if a worker can start it immediately or the
   waiting queue has room; otherwise the caller learns [`Busy] right away
   (never blocks). *)
let submit t job =
  Mutex.lock t.lock;
  let verdict =
    if t.accepting && t.running + Queue.length t.waiting < t.domains + t.queue_depth then begin
      if t.running < t.domains then start t job else Queue.add job t.waiting;
      `Accepted
    end
    else `Busy
  in
  Mutex.unlock t.lock;
  verdict

let drain t =
  Mutex.lock t.lock;
  let first = t.accepting in
  t.accepting <- false;
  while (not (Queue.is_empty t.waiting)) || t.running > 0 do
    Condition.wait t.idle t.lock
  done;
  Mutex.unlock t.lock;
  if first then Pool.release t.domains
