(* The daemons under test: topk_cli serve-s2 / serve-s1 child processes.

   A daemon is ready when it prints its "... on 127.0.0.1:PORT" line;
   the benchmark blocks on that line instead of sleeping and probing.
   The rest of its output (stdout and stderr) is drained by a thread so
   the daemon never blocks on a full pipe, and is kept for the drain
   check and for diagnostics. Every spawned daemon stays registered until
   it has been reaped, and [kill_all] (run at exit) SIGKILLs and reaps
   whatever is left, so a failed run leaves no orphan behind. *)

type t = {
  name : string;
  pid : int;
  port : int;
  lock : Mutex.t;
  out : Buffer.t;  (* everything printed, under [lock] *)
  drainer : Thread.t;
}

let live : t list ref = ref []

let forget t = live := List.filter (fun d -> d.pid <> t.pid) !live

let output t =
  Mutex.lock t.lock;
  let s = Buffer.contents t.out in
  Mutex.unlock t.lock;
  s

let find_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = if i + m > n then None else if String.sub s i m = sub then Some i else go (i + 1) in
  go 0

let contains s sub = find_sub s sub <> None

(* "... listening on 127.0.0.1:PORT" / "... serving ... on 127.0.0.1:PORT" *)
let ready_port line =
  let marker = " on 127.0.0.1:" in
  Option.bind (find_sub line marker) (fun i ->
      let j = i + String.length marker in
      int_of_string_opt (String.sub line j (String.length line - j)))

let rec waitpid_noeintr flags pid =
  try Unix.waitpid flags pid with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_noeintr flags pid

let kill_and_reap pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  try ignore (waitpid_noeintr [] pid) with Unix.Unix_error _ -> ()

let kill_all () =
  List.iter (fun d -> kill_and_reap d.pid) !live;
  live := []

let spawn ~name ~exe args =
  let r, w = Unix.pipe ~cloexec:true () in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close w; Unix.close devnull)
      (fun () -> Unix.create_process exe (Array.of_list (exe :: args)) devnull w w)
  in
  let lock = Mutex.create () and out = Buffer.create 4096 in
  let ic = Unix.in_channel_of_descr r in
  let add line =
    Mutex.lock lock;
    Buffer.add_string out line;
    Buffer.add_char out '\n';
    Mutex.unlock lock
  in
  let rec await_ready () =
    match In_channel.input_line ic with
    | None -> failwith (Printf.sprintf "%s exited before it was ready; its output:\n%s" name (Buffer.contents out))
    | Some line -> (
      add line;
      match ready_port line with Some p -> p | None -> await_ready ())
  in
  let port =
    try await_ready ()
    with e ->
      close_in_noerr ic;
      kill_and_reap pid;
      raise e
  in
  let drainer =
    Thread.create
      (fun () ->
        let rec go () = match In_channel.input_line ic with Some l -> add l; go () | None -> () in
        (try go () with Sys_error _ -> ());
        close_in_noerr ic)
      ()
  in
  let t = { name; pid; port; lock; out; drainer } in
  live := t :: !live;
  t

let addr t = Unix.ADDR_INET (Unix.inet_addr_loopback, t.port)

(* Graceful stop: SIGTERM, wait (bounded) for the exit, reap, and check
   the daemon printed its drain line and exited 0. A daemon that does
   not exit within [timeout] seconds is killed and the stop fails. *)
let stop ?(timeout = 30.) ~drain_marker t =
  (try Unix.kill t.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Unix.gettimeofday () +. timeout in
  let rec wait () =
    match waitpid_noeintr [ Unix.WNOHANG ] t.pid with
    | 0, _ ->
      if Unix.gettimeofday () > deadline then None
      else (
        Unix.sleepf 0.005;
        wait ())
    | _, status -> Some status
  in
  let status = wait () in
  if status = None then kill_and_reap t.pid;
  forget t;
  Thread.join t.drainer;
  let out = output t in
  match status with
  | None -> failwith (Printf.sprintf "%s did not exit within %.0f s of SIGTERM" t.name timeout)
  | Some (Unix.WEXITED 0) when contains out drain_marker -> out
  | Some _ ->
    failwith (Printf.sprintf "%s did not drain cleanly; its output:\n%s" t.name out)
