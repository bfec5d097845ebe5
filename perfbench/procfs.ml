(* Per-process CPU time and peak resident memory, read from /proc. *)

(* USER_HZ: the unit of utime/stime in /proc/<pid>/stat. Linux fixes it
   at 100 on every mainstream architecture. *)
let ticks_per_second = 100.

type cpu = { utime : int; stime : int }  (* clock ticks *)

(* /proc/<pid>/stat is "pid (comm) state ppid ...": comm may hold spaces
   and parentheses, so fields are counted from the last ')'. utime and
   stime are fields 14 and 15 of the whole line, i.e. the 12th and 13th
   after the command name. *)
let parse_stat line =
  match String.rindex_opt line ')' with
  | None -> invalid_arg "Procfs.parse_stat: no command field"
  | Some i ->
    let rest = String.sub line (i + 1) (String.length line - i - 1) in
    let fields = List.filter (( <> ) "") (String.split_on_char ' ' (String.trim rest)) in
    let field n =
      match List.nth_opt fields n with
      | Some f -> int_of_string f
      | None -> invalid_arg "Procfs.parse_stat: truncated line"
    in
    { utime = field 11; stime = field 12 }

(* The "VmHWM:   1234 kB" line of /proc/<pid>/status, in KiB. *)
let parse_vmhwm_kb status =
  let line =
    List.find_opt
      (fun l -> String.length l > 6 && String.sub l 0 6 = "VmHWM:")
      (String.split_on_char '\n' status)
  in
  match line with
  | None -> invalid_arg "Procfs.parse_vmhwm_kb: no VmHWM line"
  | Some l -> (
    let rest = String.sub l 6 (String.length l - 6) in
    match List.filter (( <> ) "") (String.split_on_char ' ' (String.trim rest)) with
    | [ v; "kB" ] -> int_of_string v
    | _ -> invalid_arg ("Procfs.parse_vmhwm_kb: unexpected line " ^ l))

(* Steal time: the "cpu" summary line of /proc/stat lists user, nice,
   system, idle, iowait, irq, softirq, steal, ... in clock ticks summed
   over all CPUs. Steal is time the hypervisor ran someone else while a
   virtual CPU of this machine had work. *)
let parse_steal stat =
  match String.split_on_char '\n' stat with
  | line :: _ when String.length line > 4 && String.sub line 0 4 = "cpu " -> (
    match List.filter (( <> ) "") (String.split_on_char ' ' line) with
    | _ :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: steal :: _ -> int_of_string steal
    | _ -> invalid_arg "Procfs.parse_steal: truncated cpu line")
  | _ -> invalid_arg "Procfs.parse_steal: no cpu line"

let read_file path = In_channel.with_open_bin path In_channel.input_all

let cpu pid = parse_stat (read_file (Printf.sprintf "/proc/%d/stat" pid))
let cpu_seconds c = float_of_int (c.utime + c.stime) /. ticks_per_second
let peak_rss_kb pid = parse_vmhwm_kb (read_file (Printf.sprintf "/proc/%d/status" pid))
let steal_seconds () = float_of_int (parse_steal (read_file "/proc/stat")) /. ticks_per_second
