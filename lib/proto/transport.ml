type sock = {
  fd : Unix.file_descr;
  session : int;
  counter : int ref; (* child session id allocator, shared by all forks *)
}

type kind =
  | Inproc of S2_server.t
  | Loopback of S2_server.t
  | Socket of sock
  | Mux of { sched : Sched.t; session : int }
      (* parked at a shared round scheduler: many queries, one S2 trip *)

type t = {
  keys : Wire.keys;
  chan : Channel.t;
  kind : kind;
  rtt_us : int; (* simulated per-round latency (Loopback only; bench --rtt) *)
}

let inproc keys server =
  { keys; chan = Channel.create (); kind = Inproc server; rtt_us = 0 }

let loopback ?(rtt_us = 0) keys server =
  { keys; chan = Channel.create (); kind = Loopback server; rtt_us }

let socket keys fd =
  {
    keys;
    chan = Channel.create ();
    kind = Socket { fd; session = 0; counter = ref 0 };
    rtt_us = 0;
  }

let mux keys sched ~session =
  { keys; chan = Channel.create (); kind = Mux { sched; session }; rtt_us = 0 }

let channel t = t.chan
let keys t = t.keys

(* The socket transport multiplexes every session over one ordered byte
   stream: concurrent domains would interleave frames, so sub-sessions
   that talk to S2 (Ctx.fork_subs at Ctx.effective_domains) run one after
   another (results are width-independent by construction, only wall time
   changes). Mux keeps the scheduler's one-outstanding-op-per-query
   invariant — the all-parked ship condition counts queries, not forks —
   so it does the same. Compute width (Ctx.compute, Ctx.parallel's
   S1-local tasks) does not depend on it. *)
let concurrent t =
  match t.kind with Socket _ | Mux _ -> false | Inproc _ | Loopback _ -> true

let mode_name t =
  match t.kind with
  | Inproc _ -> "inproc"
  | Loopback _ -> "loopback"
  | Socket _ -> "socket"
  | Mux _ -> "mux"

(* ---------------- request/response round trip ----------------

   Every rpc is one request frame S1 -> S2 and one response frame back:
   both are charged to the channel at their real encoded length (Loopback
   and Socket measure the frames they materialise; Inproc charges Wire's
   closed forms, which the property tests pin to the encoded lengths). *)

let rpc t ~label req =
  match t.kind with
  | Inproc server ->
    Channel.send t.chan ~dir:Channel.S1_to_s2 ~label
      ~bytes:(Wire.request_bytes t.keys ~label req);
    let resp = S2_server.handle server ~label req in
    Channel.send t.chan ~dir:Channel.S2_to_s1 ~label
      ~bytes:(Wire.response_bytes t.keys resp);
    Channel.round_trip t.chan;
    resp
  | Loopback server ->
    let frame = Wire.encode_request t.keys ~session:0 ~label req in
    Channel.send t.chan ~dir:Channel.S1_to_s2 ~label ~bytes:(String.length frame);
    let _session, label', req' = Wire.decode_request t.keys frame in
    let resp_frame = Wire.encode_response t.keys (S2_server.handle server ~label:label' req') in
    Channel.send t.chan ~dir:Channel.S2_to_s1 ~label ~bytes:(String.length resp_frame);
    Channel.round_trip t.chan;
    if t.rtt_us > 0 then Unix.sleepf (float_of_int t.rtt_us *. 1e-6);
    Wire.decode_response t.keys resp_frame
  | Socket s ->
    let frame = Wire.encode_request t.keys ~session:s.session ~label req in
    Channel.send t.chan ~dir:Channel.S1_to_s2 ~label ~bytes:(String.length frame);
    Wire.write_frame s.fd frame;
    (match Wire.read_frame s.fd with
    | None -> failwith "Transport: connection closed by S2"
    | Some resp_frame ->
      Channel.send t.chan ~dir:Channel.S2_to_s1 ~label ~bytes:(String.length resp_frame);
      Channel.round_trip t.chan;
      Wire.decode_response t.keys resp_frame)
  | Mux { sched; session } -> (
    (* per-query accounting charges the closed forms (what a dedicated
       connection would carry), keeping bytes/messages/rounds identical
       to the uncoalesced baseline; the shared mux frame's framing
       savings show up in the scheduler's trip counters instead *)
    Channel.send t.chan ~dir:Channel.S1_to_s2 ~label
      ~bytes:(Wire.request_bytes t.keys ~label req);
    match Sched.submit sched (Wire.Mux_req { session; label; req }) with
    | Wire.Mux_answer resp ->
      Channel.send t.chan ~dir:Channel.S2_to_s1 ~label
        ~bytes:(Wire.response_bytes t.keys resp);
      Channel.round_trip t.chan;
      resp
    | Wire.Mux_ok -> raise (Proto_error.Proto_error "Transport: unexpected mux reply"))

(* Control frames (fork/join/trace/stats) are orchestration, not protocol
   traffic: they bypass the channel accounting entirely. *)
let control_rpc fd ctl =
  Wire.write_frame fd (Wire.encode_control ctl);
  match Wire.read_frame fd with
  | None -> failwith "Transport: connection closed by S2"
  | Some frame -> Wire.decode_control_reply frame

let expect_ok = function
  | Wire.Ok_ctl -> ()
  | _ -> failwith "Transport: unexpected control reply"

(* ---------------- parallel forks ---------------- *)

let fork t ~label =
  match t.kind with
  | Inproc server ->
    { t with chan = Channel.create (); kind = Inproc (S2_server.fork server ~label) }
  | Loopback server ->
    { t with chan = Channel.create (); kind = Loopback (S2_server.fork server ~label) }
  | Socket s ->
    incr s.counter;
    let child = !(s.counter) in
    expect_ok (control_rpc s.fd (Wire.Fork { parent = s.session; child; label }));
    { t with chan = Channel.create (); kind = Socket { s with session = child } }
  | Mux { sched; session } ->
    let child = Sched.alloc_session sched in
    (match Sched.submit sched (Wire.Mux_fork { parent = session; child; label }) with
    | Wire.Mux_ok -> ()
    | Wire.Mux_answer _ ->
      raise (Proto_error.Proto_error "Transport: unexpected mux reply to fork"));
    { t with chan = Channel.create (); kind = Mux { sched; session = child } }

let join_sub sub ~into =
  Channel.merge_into sub.chan ~into:into.chan;
  match (sub.kind, into.kind) with
  | Inproc child, Inproc parent | Loopback child, Loopback parent ->
    S2_server.join child ~into:parent
  | Socket child, Socket parent ->
    expect_ok
      (control_rpc parent.fd (Wire.Join { parent = parent.session; child = child.session }))
  | Mux child, Mux parent -> (
    match
      Sched.submit child.sched
        (Wire.Mux_join { parent = parent.session; child = child.session })
    with
    | Wire.Mux_ok -> ()
    | Wire.Mux_answer _ ->
      raise (Proto_error.Proto_error "Transport: unexpected mux reply to join"))
  | _ -> invalid_arg "Transport.join_sub: mismatched transports"

(* ---------------- S2-side introspection ---------------- *)

let local_server t =
  match t.kind with
  | Inproc server | Loopback server -> Some server
  | Socket _ | Mux _ -> None

let trace t =
  match local_server t with
  | Some server -> S2_server.trace server
  | None -> invalid_arg "Transport.trace: S2 is remote (use trace_events)"

let trace_events t =
  match t.kind with
  | Inproc server | Loopback server -> Trace.events (S2_server.trace server)
  | Socket s -> (
    match control_rpc s.fd Wire.Get_trace with
    | Wire.Trace_events events -> events
    | _ -> failwith "Transport: unexpected control reply")
  | Mux _ ->
    (* the scheduler's backend owns the per-session responders; an
       embedding that needs traces keeps its own handle on them (the
       coalescing tests do exactly that) *)
    invalid_arg "Transport.trace_events: mux transport (ask the scheduler backend)"

let secret_key t =
  match local_server t with
  | Some server -> S2_server.secret_key server
  | None -> invalid_arg "Transport.secret_key: S2 is remote"

(* S2-side operation counters. Local transports run S2 code on the
   caller's domain, so its ops already land in the client collector and
   this is empty; the socket daemon counts remotely and reports here. *)
let remote_stats t =
  match t.kind with
  | Inproc _ | Loopback _ -> []
  | Mux _ -> [] (* in-process backends count into the query collector;
                   daemon backends count daemon-side, scraped separately *)
  | Socket s -> (
    match control_rpc s.fd Wire.Get_stats with
    | Wire.Stats stats -> stats
    | _ -> failwith "Transport: unexpected control reply")

(* Key-less monitoring scrape against a listening daemon (serve-s1 or
   serve-s2): dial, ship one Stats_req, and wait for the Stats_resp —
   skipping any server-kind frames on the way (serve-s1 greets every
   connection with a Server_hello, which only key holders can decode;
   the kind byte is enough to step over it). *)
let scrape_stats addr =
  let fd = Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd addr;
      (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
      Wire.write_frame fd (Wire.encode_control Wire.Stats_req);
      let rec await () =
        match Wire.read_frame fd with
        | None -> failwith "Transport: connection closed during stats scrape"
        | Some frame -> (
          match Wire.frame_kind frame with
          | Some 'V' -> await ()
          | _ -> (
            match Wire.decode_control_reply frame with
            | Wire.Stats_resp snap -> snap
            | _ -> failwith "Transport: unexpected control reply"))
      in
      await ())

let shutdown t =
  match t.kind with
  | Inproc _ | Loopback _ -> ()
  | Mux _ -> () (* the scheduler outlives any one query; its owner stops it *)
  | Socket s ->
    expect_ok (control_rpc s.fd Wire.Shutdown);
    Unix.close s.fd

(* ---------------- daemon plumbing ---------------- *)

let hello fd h =
  Wire.write_frame fd (Wire.encode_control (Wire.Hello h));
  match Wire.read_frame fd with
  | None -> failwith "Transport: S2 closed during Hello"
  | Some frame -> expect_ok (Wire.decode_control_reply frame)

(* Fork a child process serving the S2 side of a socketpair; returns the
   parent's connected fd (Hello already exchanged) and the child pid.
   OCaml 5 refuses to fork once the process has spawned a domain, so
   this must run before the first parallel work (Core.Pool's fork
   rule). *)
let spawn_daemon h =
  let parent_fd, child_fd = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.fork () with
  | 0 ->
    Unix.close parent_fd;
    (try S2_server.serve_fd child_fd with _ -> ());
    (try Unix.close child_fd with _ -> ());
    Unix._exit 0
  | pid ->
    Unix.close child_fd;
    hello parent_fd h;
    (parent_fd, pid)

let stop_daemon t pid =
  shutdown t;
  ignore (Unix.waitpid [] pid)

(* TCP client for a standalone daemon ([topk_cli serve-s2]). *)
let connect_tcp addr h =
  let fd = Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
  Unix.connect fd addr;
  (* the protocols are strict request/response ping-pong over small
     frames; Nagle + delayed ACK would serialize every round behind a
     ~40ms timer *)
  (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
  hello fd h;
  fd
