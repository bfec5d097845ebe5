(** The S2 party: key holder and responder.

    S2 owns the Paillier/DJ secret keys, its own randomness stream and the
    {!Trace} of everything it decrypts. It never sees S1 state — its whole
    view is the stream of {!Wire.request} frames dispatched to {!handle},
    each carrying the protocol label under which revealed facts are traced.
    The same handler code serves all three transports, so results, traces
    and operation counts are byte-identical whether S2 runs in-process or
    as a separate daemon. *)

open Crypto

type t

(** [domains] (default 1) is the compute width of the pure halves of
    request handling — decryptions and the exponentiations of fresh
    encryptions — on the {!Core.Pool}; randomness is still drawn from
    [rng] in sequential order, so responses and traces do not depend on
    it. Forked sessions inherit it. *)
val create :
  ?domains:int ->
  pub:Paillier.public ->
  djpub:Damgard_jurik.public ->
  sk:Paillier.secret ->
  djsk:Damgard_jurik.secret ->
  own_pub:Paillier.public ->
  rng:Rng.t ->
  unit ->
  t

(** Rebuild S2 state from the client's provisioning parameters, replaying
    the seeded generator in the exact order [Ctx.provision] consumes it
    (keygen, then the "ctx"/"s1"/"s2" forks). Demo/test provisioning: real
    deployments ship keys out-of-band. *)
val of_hello : ?domains:int -> Wire.hello -> t

(** Answer one request; the label names the protocol for trace purposes. *)
val handle : t -> label:string -> Wire.request -> Wire.response

(** Fork a child session for one parallel task (fresh rng fork + empty
    trace, shared keys); [join] folds the child's trace back in call
    order. Mirrors [Ctx.parallel]'s S1-side forks one-to-one. *)
val fork : t -> label:string -> t

val join : t -> into:t -> unit
val trace : t -> Trace.t
val secret_key : t -> Paillier.secret

(** The server's precomputed Paillier re-randomization noise pool (one
    per session; forked sessions get their own). Exposed so an embedding
    can [Noise_pool.prefill] or [start_filler]/[quiesce] it. *)
val noise_pool : t -> Noise_pool.t

(** {2 Multiplexed sessions}

    State behind one coalescing scheduler ({!Sched}): sessions opened by
    [Mux_open] ops, keyed by their correlation tag. [make ~session]
    provisions a fresh responder exactly as a dedicated connection would
    — the daemon passes [of_hello]'s replay, an in-process backend the
    baseline [create] — so every session's randomness stream matches the
    uncoalesced path byte for byte. *)
type mux_state

val mux_state : make:(session:int -> t) -> mux_state

(** Answer one merged frame of ops, element-wise in frame order. Each
    op's optional collector is installed around it so S2-side crypto
    counts in the owning query's report (in-process backends). Unknown
    or duplicate sessions raise [Invalid_argument], matching the codec's
    treatment of malformed frames. *)
val handle_mux_ops :
  mux_state -> (Wire.mux_op * Obs.Collector.t option) list -> Wire.mux_reply list

(** Serve one connection: expects a [Hello] control frame, then answers
    request/control/mux frames until EOF or [Shutdown]. Runs the daemon
    side of the Socket transport; mux frames ([Sched.socket_backend])
    demultiplex into per-session responders provisioned by [of_hello]. [on_ready] (if given) is called once after
    provisioning with the setup wall time in seconds — key replay plus
    Montgomery-context and fixed-base-comb warmup — so a daemon can log
    what its first client paid before the first request was served.

    [registry] (if given) makes the connection scrapeable: a [Stats_req]
    control frame — mid-session, or as the very first frame from a
    key-less monitoring client — answers with [Stats_resp] carrying the
    registry snapshot (mid-session scrapes also fold in the connection's
    op counters as [op_*] counter series).

    Every responder on the connection computes at the core count
    ([Domain.recommended_domain_count ()]); the noise pool's refills run
    as {!Core.Pool.async} jobs on the same helpers. *)
val serve_fd :
  ?on_ready:(float -> unit) -> ?registry:Obs.Registry.t -> Unix.file_descr -> unit

(** The serve-s2 accept loop on a listening socket: one domain per
    connection running {!serve_fd} with [registry], until [stop ()] holds
    at an accept (a signal handler flips it and interrupts [accept]) or,
    with [once], after the first served connection. Then every live
    connection runs to completion and its domain is joined.

    Registers [connections] and [spawn_failures] counters and the
    [comb_warmup_seconds] / [combs_built] gauges on [registry]. [log]
    receives the per-connection lifecycle lines, [warn] failures. When
    [spawn] (default [Domain.spawn]) fails — OCaml caps a process at 128
    live domains — the connection is closed, [spawn_failures] counts it
    and the loop keeps accepting. *)
val listen :
  ?spawn:((unit -> unit) -> unit Domain.t) ->
  ?log:(string -> unit) ->
  ?warn:(string -> unit) ->
  ?once:bool ->
  registry:Obs.Registry.t ->
  stop:(unit -> bool) ->
  Unix.file_descr ->
  unit
