(** Persistent bounded worker pool — the execution engine of the serving
    front-end.

    Where {!Pool.map} evaluates one batch, a [Service.t] keeps [domains]
    workers for requests, behind bounded admission: {!submit} never
    blocks, and a full queue answers [`Busy] so overload stays a typed,
    immediate signal. The workers are helper domains of the process-wide
    {!Pool} (reserved at {!create}): a worker with no request to run
    takes compute chunks, and chunks go ahead of waiting requests. *)

type t

(** [create ~domains ~queue_depth] reserves [domains] pool helpers.
    [queue_depth] bounds jobs waiting beyond the ones workers can start
    immediately ([queue_depth = 0]: a job is accepted only when a worker
    is free). *)
val create : domains:int -> queue_depth:int -> t

(** Non-blocking admission. Accepted jobs start in submission order,
    at most [domains] at a time; a job's exceptions are swallowed
    (deliver results through the closure). Returns [`Busy] when the
    queue is full or the service is draining. *)
val submit : t -> (unit -> unit) -> [ `Accepted | `Busy ]

(** Stop admitting and run everything already accepted to completion,
    then return the reserved helpers to the pool. Subsequent submits
    return [`Busy]. *)
val drain : t -> unit
