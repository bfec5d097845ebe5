(** The process-wide compute pool over OCaml 5 domains.

    One pool serves every data-parallel batch in the process: relation
    encryption, {!Proto.Ctx.parallel}'s session fan-out, the pure
    arithmetic of the two-cloud protocols ([Ctx.compute]) and S2's
    parallel decryptions. Its helper domains start lazily on first use
    and persist, so a served query pays no domain spawn; long-lived
    users ({!Service}, serve-s2's noise refills) run as jobs on the same
    helpers, so a daemon owns one set of domains for queries and
    compute alike.

    Determinism contract: randomness is drawn or forked {e before} work
    reaches the pool (see {!fork_rngs}); the tasks themselves are pure, so
    results are a pure function of the inputs — a run with [domains:1]
    and [domains:8] produces byte-identical output, and Obs counters and
    span trees are identical too (each chunk runs under a private
    collector merged back in chunk order).

    Fork rule: helpers live until the process exits, and OCaml refuses
    [Unix.fork] in a process whose domain has ever spawned another (even
    once every other domain is joined, the spawning domain keeps a backup
    thread). Fork child processes before the first parallel work
    (DESIGN.md section 4j). *)

open Crypto

(** [map ~domains ~jobs f] evaluates [f i] for [i] in [0..jobs-1] and
    returns the results in index order, using at most [domains] domains
    (the caller counts as one). Each index is one chunk, claimed by the
    caller itself alongside any idle helper, so when every helper is busy
    the batch simply runs inline — no oversubscription and no deadlock,
    also for nested or concurrent maps. [domains <= 1] or
    [jobs <= 1] runs inline in index order. If tasks raise, every chunk
    still runs and the exception of the lowest failing chunk is
    re-raised. *)
val map : domains:int -> jobs:int -> (int -> 'a) -> 'a array

(** {!map} over a list, order preserved. *)
val map_list : domains:int -> ('a -> 'b) -> 'a list -> 'b list

(** [fork_rngs rng ~jobs] forks one generator per job index from [rng],
    in index order (labels ["par:0"], ["par:1"], ...). Each fork is an
    independent DRBG, safe to use from its own domain. *)
val fork_rngs : Rng.t -> jobs:int -> Rng.t array

(** [map_rng rng ~domains ~jobs f] is {!map} with a pre-forked generator
    per task: [f rngs.(i) i]. *)
val map_rng : Rng.t -> domains:int -> jobs:int -> (Rng.t -> int -> 'a) -> 'a array

(** One task overlapped with the caller: an idle helper may pick it up;
    {!await} runs it inline if none did. Counted under a private
    collector merged into the creator's at [await]. *)
type 'a task

val background : (unit -> 'a) -> 'a task
val await : 'a task -> 'a

(** Queue a fire-and-forget job for the next helper that has no compute
    chunk to run (chunks always go first). Exceptions are swallowed.
    Starts a helper if none is live. *)
val async : (unit -> unit) -> unit

(** [reserve n] keeps at least [n] more helpers alive (spawned now) for a
    long-lived user that runs blocking jobs through {!async} — serve-s1's
    query workers; raises [Failure] (promising nothing) if they cannot be
    started. [release n] returns the promise; helpers persist. *)
val reserve : int -> unit

val release : int -> unit
