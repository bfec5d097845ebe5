(** Transport between the S1 driver code and the S2 responder.

    Four implementations of one rpc interface:

    - [Inproc]: S2 runs in-process and requests are dispatched without
      materialising frames; the channel is charged {!Wire}'s closed-form
      frame sizes (pinned to the real encoded lengths by the property
      tests). The fast path.
    - [Loopback]: every request and response is encoded through {!Wire}
      and decoded on the other side, still in one process — proves each
      protocol survives serialization, and measures real frame lengths.
    - [Socket]: frames travel over a file descriptor to an S2 daemon in
      another process (socketpair or TCP). True two-process mode.
    - [Mux]: requests park at a shared round scheduler ({!Sched}) which
      merges every concurrent query's next op into one multiplexed S2
      trip. The per-query channel is charged the same closed forms as
      [Inproc] — what a dedicated connection would carry — so per-query
      accounting stays baseline-identical while the shared trip count
      drops.

    A seeded query produces byte-identical results, traces and operation
    counters on all of them (socket-mode S2 ops are counted daemon-side;
    fetch them with {!remote_stats}). *)

type t

val inproc : Wire.keys -> S2_server.t -> t

(** [rtt_us] injects a simulated per-round latency (microseconds of
    [Unix.sleepf] after each round trip) so round-count differences show
    up as wall-clock time on one machine (bench [--rtt]). *)
val loopback : ?rtt_us:int -> Wire.keys -> S2_server.t -> t

(** Wrap a connected fd whose [Hello] handshake already happened
    ({!spawn_daemon} / {!connect_tcp}). *)
val socket : Wire.keys -> Unix.file_descr -> t

(** Park this query's rpcs at a shared {!Sched} under the given mux
    session id (obtained from [Sched.open_query]). Forking allocates
    child sessions from the same scheduler. *)
val mux : Wire.keys -> Sched.t -> session:int -> t

val channel : t -> Channel.t
val keys : t -> Wire.keys

(** False for [Socket] (one ordered byte stream cannot interleave
    concurrent sessions) and for [Mux] (the scheduler's ship condition
    assumes one outstanding op per query): sub-sessions that talk to S2
    run one after another on both ([Ctx.effective_domains]). Compute
    width ([Ctx.compute], [Ctx.parallel]) does not depend on it. *)
val concurrent : t -> bool

val mode_name : t -> string

(** One request/response round trip. Both frames are charged to the
    channel at their encoded length under the request's protocol label. *)
val rpc : t -> label:string -> Wire.request -> Wire.response

(** Fork a child transport for one parallel task: local transports fork
    the in-process server; the socket transport opens a child session on
    the daemon via a [Fork] control frame (control traffic is never
    charged to the channel). [join_sub] merges the child's channel and
    S2 trace back; call in task-index order. *)
val fork : t -> label:string -> t

val join_sub : t -> into:t -> unit

(** Direct S2 state, for local transports and tests; raises
    [Invalid_argument] when S2 is remote. *)
val trace : t -> Trace.t

val secret_key : t -> Crypto.Paillier.secret

(** S2's trace, transport-independent (fetched by control rpc in socket
    mode). *)
val trace_events : t -> Trace.event list

(** S2-side operation counters by metric name: empty for local transports
    (S2 ops already land in the client's collector), the daemon's totals
    in socket mode. *)
val remote_stats : t -> (string * int) list

(** Key-less live-telemetry scrape: connect to a listening [serve-s1] or
    [serve-s2] daemon, send one [Stats_req], and return the registry
    snapshot from its [Stats_resp] — skipping (by kind byte, without
    decoding) the [Server_hello] frame serve-s1 greets connections with.
    Needs no key material, so any monitoring client can call it. *)
val scrape_stats : Unix.sockaddr -> Obs.Registry.snapshot

(** Politely stop a socket daemon (no-op for local transports). *)
val shutdown : t -> unit

(** Send the provisioning [Hello] on a fresh connection and await the ack. *)
val hello : Unix.file_descr -> Wire.hello -> unit

(** Fork a child process serving S2 over a socketpair; returns the
    connected fd (Hello done) and the child pid. OCaml 5 refuses to fork
    once the process has spawned a domain, so call it before the first
    parallel work ({!Core.Pool}'s fork rule). *)
val spawn_daemon : Wire.hello -> Unix.file_descr * int

(** {!shutdown} + reap the daemon process. *)
val stop_daemon : t -> int -> unit

(** Connect to a standalone [topk_cli serve-s2] daemon over TCP. *)
val connect_tcp : Unix.sockaddr -> Wire.hello -> Unix.file_descr
