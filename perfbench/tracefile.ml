(* Self-time ledger of one Chrome trace written by serve-s1's
   --trace-sample. Each span's self time is its duration minus the
   durations of the spans directly nested in it, so the self times of
   all spans add up to the wall time of the root spans exactly. *)

(* ---- a small JSON reader, enough for trace-event files ---- *)

type json = Null | Bool of bool | Num of float | Str of string | Arr of json list | Obj of (string * json) list

exception Parse_error of string

let parse_json s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at byte %d" msg !pos)) in
  let rec skip () =
    if !pos < n && (match s.[!pos] with ' ' | '\n' | '\r' | '\t' -> true | _ -> false) then begin
      incr pos;
      skip ()
    end
  in
  let expect c =
    skip ();
    if !pos < n && s.[!pos] = c then incr pos else fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then (pos := !pos + l; v)
    else fail "bad literal"
  in
  let string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      incr pos;
      match c with
      | '"' -> Buffer.contents b
      | '\\' ->
        if !pos >= n then fail "unterminated escape";
        let e = s.[!pos] in
        incr pos;
        (match e with
        | '"' | '\\' | '/' -> Buffer.add_char b e
        | 'n' -> Buffer.add_char b '\n'
        | 't' -> Buffer.add_char b '\t'
        | 'r' -> Buffer.add_char b '\r'
        | 'b' -> Buffer.add_char b '\b'
        | 'f' -> Buffer.add_char b '\012'
        | 'u' ->
          if !pos + 4 > n then fail "short \\u escape";
          let code = int_of_string ("0x" ^ String.sub s !pos 4) in
          pos := !pos + 4;
          Buffer.add_utf_8_uchar b (Uchar.of_int code)
        | _ -> fail "bad escape");
        go ()
      | c ->
        Buffer.add_char b c;
        go ()
    in
    go ()
  in
  let number () =
    let start = !pos in
    while
      !pos < n
      && match s.[!pos] with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
    do
      incr pos
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> fail "bad number"
  in
  let rec value () =
    skip ();
    if !pos >= n then fail "unexpected end";
    match s.[!pos] with
    | '{' ->
      incr pos;
      skip ();
      if !pos < n && s.[!pos] = '}' then (incr pos; Obj [])
      else
        let rec fields acc =
          let k = (skip (); string ()) in
          expect ':';
          let v = value () in
          skip ();
          if !pos < n && s.[!pos] = ',' then (incr pos; fields ((k, v) :: acc))
          else (expect '}'; Obj (List.rev ((k, v) :: acc)))
        in
        fields []
    | '[' ->
      incr pos;
      skip ();
      if !pos < n && s.[!pos] = ']' then (incr pos; Arr [])
      else
        let rec items acc =
          let v = value () in
          skip ();
          if !pos < n && s.[!pos] = ',' then (incr pos; items (v :: acc))
          else (expect ']'; Arr (List.rev (v :: acc)))
        in
        items []
    | '"' -> Str (string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ -> Num (number ())
  in
  let v = value () in
  skip ();
  if !pos <> n then fail "trailing bytes";
  v

(* ---- trace events ---- *)

type event = { name : string; ts : float; dur : float; args : (string * float) list }

let events_of_string s =
  let field k = function Obj fs -> List.assoc_opt k fs | _ -> None in
  let num k o = match field k o with Some (Num f) -> f | _ -> raise (Parse_error ("missing " ^ k)) in
  match field "traceEvents" (parse_json s) with
  | Some (Arr evs) ->
    List.filter_map
      (fun o ->
        match (field "ph" o, field "name" o) with
        | Some (Str "X"), Some (Str name) ->
          let args =
            match field "args" o with
            | Some (Obj fs) -> List.filter_map (fun (k, v) -> match v with Num f -> Some (k, f) | _ -> None) fs
            | _ -> []
          in
          Some { name; ts = num "ts" o; dur = num "dur" o; args }
        | _ -> None)
      evs
  | _ -> raise (Parse_error "no traceEvents array")

type ledger = {
  wall_us : float;  (* summed duration of the root spans *)
  self_us : (string * float) list;  (* self time summed per span name, sorted by name *)
  root_args : (string * float) list;  (* op counters of the root spans, summed *)
}

(* Timestamps are printed to 0.1 us, so a child may seem to end a hair
   after its parent. *)
let slack_us = 0.5

let ledger events =
  let evs = List.sort (fun a b -> compare (a.ts, -.a.dur) (b.ts, -.b.dur)) events in
  let self = Hashtbl.create 16 in
  let credit name us =
    Hashtbl.replace self name (us +. Option.value (Hashtbl.find_opt self name) ~default:0.)
  in
  let wall = ref 0. and args = Hashtbl.create 16 in
  (* open spans, innermost first, each with the summed duration of its
     direct children *)
  let stack = ref [] in
  let close () =
    match !stack with
    | (e, kids) :: rest ->
      credit e.name (e.dur -. !kids);
      stack := rest
    | [] -> ()
  in
  let contains p e = e.ts >= p.ts -. slack_us && e.ts +. e.dur <= p.ts +. p.dur +. slack_us in
  List.iter
    (fun e ->
      while match !stack with (p, _) :: _ -> not (contains p e) | [] -> false do
        close ()
      done;
      (match !stack with
      | (_, kids) :: _ -> kids := !kids +. e.dur
      | [] ->
        wall := !wall +. e.dur;
        List.iter
          (fun (k, v) ->
            Hashtbl.replace args k (v +. Option.value (Hashtbl.find_opt args k) ~default:0.))
          e.args);
      stack := (e, ref 0.) :: !stack)
    evs;
  while !stack <> [] do
    close ()
  done;
  let sorted h = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) h []) in
  { wall_us = !wall; self_us = sorted self; root_args = sorted args }

let self_of l name = Option.value (List.assoc_opt name l.self_us) ~default:0.
let arg_of l name = Option.value (List.assoc_opt name l.root_args) ~default:0.
