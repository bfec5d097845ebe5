(* The plaintext oracle an answer is judged against. *)

(* One decrypted answer row: the object the EHL+ first cell resolved to
   ([None] when it matched no object id), and its decrypted worst/best
   score bounds. *)
type item = { oid : int option; worst : int; best : int }

(* [check ~scores ~k items] accepts a top-k answer over a relation whose
   aggregate scores are [scores] (indexed by object): exactly [min k n]
   distinct objects, each scoring at least the k-th best score (ties at
   the threshold may resolve either way), and each object's true score
   inside its decrypted [worst, best] interval. *)
let check ~scores ~k items =
  let n = Array.length scores in
  let expected = min k n in
  let desc = Array.copy scores in
  Array.sort (fun a b -> compare b a) desc;
  let kth = if expected = 0 then min_int else desc.(expected - 1) in
  let oids = List.filter_map (fun it -> it.oid) items in
  if List.length items <> expected then
    Error (Printf.sprintf "%d answers, expected %d" (List.length items) expected)
  else if List.length oids <> expected then Error "an answer resolved to no object"
  else if List.length (List.sort_uniq compare oids) <> expected then
    Error "duplicate object in the answer"
  else
    match List.find_opt (fun it -> match it.oid with Some o -> o < 0 || o >= n | None -> true) items with
    | Some _ -> Error "answer object outside the relation"
    | None -> (
      let bad =
        List.find_opt
          (fun it ->
            let s = scores.(Option.get it.oid) in
            s < kth || s < it.worst || s > it.best)
          items
      in
      match bad with
      | None -> Ok ()
      | Some it ->
        let o = Option.get it.oid in
        Error
          (Printf.sprintf "object o%d: score %d, bounds [%d, %d], k-th best %d" o scores.(o)
             it.worst it.best kth))
