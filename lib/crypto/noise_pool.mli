(** A pool of precomputed re-randomization noise values.

    A re-randomization multiplies a ciphertext by a fresh encryption of
    zero — one modular exponentiation ([Paillier.noise],
    [Damgard_jurik.noise]) per call. The pool precomputes those noise
    values (optionally in background jobs), leaving a single modular
    multiplication on the query path ({!Paillier.rerandomize_with},
    {!Damgard_jurik.rerandomize_with}).

    Deterministic under a seeded generator: values are drawn
    sequentially from the pool's root generator, produced and consumed
    strictly in index order, so the stream is independent of filler
    scheduling (or of the filler existing at all). Generation runs under
    a throwaway Obs collector; each {!take} bumps
    [Obs.Metrics.Rerand_pool] instead. *)

type t

(** [create ?depth rng ~label gen] — forks the pool's root generator off
    [rng] (one draw, at creation) and produces values with [gen]. [depth]
    is the filler's low-water mark (default 64). No filler is started. *)
val create : ?depth:int -> Rng.t -> label:string -> (Rng.t -> Bignum.Nat.t) -> t

(** Next noise value, in strict index order; computed on demand when the
    pool is empty. *)
val take : t -> Bignum.Nat.t

(** Synchronously bank at least [n] values (e.g. during setup). *)
val prefill : t -> int -> unit

(** Number of values currently banked. *)
val banked : t -> int

(** Turn the background filler on: whenever fewer than [depth] values are
    banked, one refill job at a time is handed to [submit] (a daemon
    passes [Core.Pool.async]); each banks one value and re-submits itself
    while still below the mark. Idempotent. *)
val start_filler : t -> submit:((unit -> unit) -> unit) -> unit

(** Turn the filler off and wait for a running refill job to finish.
    Banked values stay usable. *)
val quiesce : t -> unit
