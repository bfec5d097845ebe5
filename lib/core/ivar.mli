(** A write-once cell shared between domains: one side parks on {!read}
    until the other {!fill}s it (a query's response handed from a worker
    domain to its session, a parked S2 op's reply handed from the round
    scheduler's shipper to the querying domain). *)

type 'a t

val create : unit -> 'a t

(** Store the value and wake every reader. Fill once. *)
val fill : 'a t -> 'a -> unit

(** Block until the cell is filled, then return its value. *)
val read : 'a t -> 'a
