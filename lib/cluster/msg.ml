open Ts_model
module Json = Ts_analysis.Json
module Explore = Ts_checker.Explore

(* --- schedule codec ----------------------------------------------------- *)

let sched_to_string events =
  let buf = Buffer.create 64 in
  List.iteri
    (fun i { Execution.pid; coin } ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (string_of_int pid);
      match coin with
      | Some true -> Buffer.add_char buf 'h'
      | Some false -> Buffer.add_char buf 't'
      | None -> ())
    events;
  Buffer.contents buf

let token_of_string tok =
  let len = String.length tok in
  if len = 0 then Error "empty schedule token"
  else
    let coin, digits =
      match tok.[len - 1] with
      | 'h' -> (Some true, String.sub tok 0 (len - 1))
      | 't' -> (Some false, String.sub tok 0 (len - 1))
      | _ -> (None, tok)
    in
    match int_of_string_opt digits with
    | Some pid when pid >= 0 -> Ok { Execution.pid; coin }
    | _ -> Error (Printf.sprintf "bad schedule token %S" tok)

let sched_of_string s =
  if s = "" then Ok []
  else
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | tok :: rest -> (
        match token_of_string tok with
        | Ok e -> go (e :: acc) rest
        | Error _ as e -> e)
    in
    go [] (String.split_on_char ',' s)

(* Serial event rank: pid major; within a pid, heads (and the coinless
   single step) before tails — the order [Config.iter_successors] emits. *)
let event_rank { Execution.pid; coin } =
  (pid * 2) + match coin with Some false -> 1 | _ -> 0

let rec compare_sched a b =
  match (a, b) with
  | [], [] -> 0
  | [], _ :: _ -> -1
  | _ :: _, [] -> 1
  | x :: a', y :: b' ->
    let c = compare (event_rank x) (event_rank y) in
    if c <> 0 then c else compare_sched a' b'

(* --- hex codec ----------------------------------------------------------- *)

let hex_encode raw =
  let buf = Buffer.create (String.length raw * 2) in
  String.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%02x" (Char.code c))) raw;
  Buffer.contents buf

let hex_decode hex =
  let len = String.length hex in
  if len mod 2 <> 0 then Error "odd-length hex string"
  else
    let nibble c =
      match c with
      | '0' .. '9' -> Ok (Char.code c - Char.code '0')
      | 'a' .. 'f' -> Ok (Char.code c - Char.code 'a' + 10)
      | 'A' .. 'F' -> Ok (Char.code c - Char.code 'A' + 10)
      | _ -> Error (Printf.sprintf "bad hex character %C" c)
    in
    let buf = Buffer.create (len / 2) in
    let rec go i =
      if i >= len then Ok (Buffer.contents buf)
      else
        match (nibble hex.[i], nibble hex.[i + 1]) with
        | Ok hi, Ok lo ->
          Buffer.add_char buf (Char.chr ((hi lsl 4) lor lo));
          go (i + 2)
        | Error e, _ | _, Error e -> Error e
    in
    go 0

(* --- field helpers ------------------------------------------------------- *)

let get_str doc k =
  match Option.bind (Json.member k doc) Json.to_str_opt with
  | Some s -> Ok s
  | None -> Error (Printf.sprintf "missing or non-string field %S" k)

let get_int doc k =
  match Option.bind (Json.member k doc) Json.to_int_opt with
  | Some i -> Ok i
  | None -> Error (Printf.sprintf "missing or non-integer field %S" k)

let get_int_opt doc k ~default =
  match Json.member k doc with
  | None | Some Json.Null -> Ok default
  | Some v -> (
    match Json.to_int_opt v with
    | Some i -> Ok i
    | None -> Error (Printf.sprintf "field %S has the wrong type" k))

let get_bool_opt doc k ~default =
  match Json.member k doc with
  | None | Some Json.Null -> Ok default
  | Some v -> (
    match Json.to_bool_opt v with
    | Some b -> Ok b
    | None -> Error (Printf.sprintf "field %S has the wrong type" k))

let get_list doc k =
  match Json.member k doc with
  | Some (Json.List l) -> Ok l
  | _ -> Error (Printf.sprintf "missing or non-list field %S" k)

(* --- candidates ---------------------------------------------------------- *)

type cand = {
  shard : int;
  sched : string;
}

(* compact two-element array form: candidate lists dominate round
   payloads, so per-candidate key strings would be pure overhead *)
let cand_to_json { shard; sched } = Json.List [ Json.Int shard; Json.Str sched ]

let cand_of_json = function
  | Json.List [ Json.Int shard; Json.Str sched ] when shard >= 0 ->
    Ok { shard; sched }
  | _ -> Error "candidate must be [shard, sched]"

let cands_to_json cs = Json.List (List.map cand_to_json cs)

let cands_of_json = function
  | Json.List l ->
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | c :: rest -> (
        match cand_of_json c with Ok c -> go (c :: acc) rest | Error _ as e -> e)
    in
    go [] l
  | _ -> Error "candidates must be a list"

(* --- values and violations ----------------------------------------------- *)

let rec value_to_json = function
  | Value.Bot -> Json.Null
  | Value.Int i -> Json.Int i
  | Value.Bool b -> Json.Bool b
  | Value.Pair (a, b) ->
    Json.Obj [ ("fst", value_to_json a); ("snd", value_to_json b) ]
  | Value.List vs -> Json.List (List.map value_to_json vs)

let rec value_of_json = function
  | Json.Null -> Ok Value.Bot
  | Json.Int i -> Ok (Value.Int i)
  | Json.Bool b -> Ok (Value.Bool b)
  | Json.Obj _ as doc -> (
    match (Json.member "fst" doc, Json.member "snd" doc) with
    | Some f, Some s ->
      Result.bind (value_of_json f) (fun f ->
          Result.bind (value_of_json s) (fun s -> Ok (Value.Pair (f, s))))
    | _ -> Error "value object must have fst/snd")
  | Json.List l ->
    let rec go acc = function
      | [] -> Ok (Value.List (List.rev acc))
      | v :: rest -> (
        match value_of_json v with Ok v -> go (v :: acc) rest | Error _ as e -> e)
    in
    go [] l
  | Json.Float _ | Json.Str _ -> Error "unencodable value"

let values_of_json l =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | v :: rest -> (
      match value_of_json v with Ok v -> go (v :: acc) rest | Error _ as e -> e)
  in
  go [] l

let pids_of_json l =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | Json.Int p :: rest -> go (p :: acc) rest
    | _ -> Error "pid list must hold integers"
  in
  go [] l

let violation_payload_to_json v =
  let kind = Explore.violation_kind v in
  let extra =
    match v with
    | Explore.Agreement_violation { values; _ } ->
      [ ("values", Json.List (List.map value_to_json values)) ]
    | Explore.Validity_violation { value; _ } -> [ ("value", value_to_json value) ]
    | Explore.Solo_stuck { pid; _ } -> [ ("pid", Json.Int pid) ]
    | Explore.Crash_stuck { crashed; survivors; _ } ->
      [
        ("crashed", Json.List (List.map (fun p -> Json.Int p) crashed));
        ("survivors", Json.List (List.map (fun p -> Json.Int p) survivors));
      ]
  in
  Json.Obj (("kind", Json.Str kind) :: extra)

let violation_of_payload doc ~inputs ~schedule =
  let ( let* ) = Result.bind in
  let* kind = get_str doc "kind" in
  match kind with
  | "agreement" ->
    let* vs = get_list doc "values" in
    let* values = values_of_json vs in
    Ok (Explore.Agreement_violation { inputs; schedule; values })
  | "validity" -> (
    match Json.member "value" doc with
    | None -> Error "validity payload missing value"
    | Some v ->
      let* value = value_of_json v in
      Ok (Explore.Validity_violation { inputs; schedule; value }))
  | "solo-termination" ->
    let* pid = get_int doc "pid" in
    Ok (Explore.Solo_stuck { inputs; schedule; pid })
  | "resilience" ->
    let* cl = get_list doc "crashed" in
    let* sl = get_list doc "survivors" in
    let* crashed = pids_of_json cl in
    let* survivors = pids_of_json sl in
    Ok (Explore.Crash_stuck { inputs; schedule; crashed; survivors })
  | k -> Error (Printf.sprintf "unknown violation kind %S" k)

(* --- envelopes ----------------------------------------------------------- *)

let ok_result ~id result =
  Ts_service.Response.envelope_raw ~id ~provenance:None ~cache_key:None
    ~elapsed_ms:0. ~result:(Json.to_string result)

let result_of_envelope doc =
  match Json.member "ok" doc with
  | Some (Json.Bool true) -> (
    match Json.member "result" doc with
    | Some r -> Ok r
    | None -> Error "envelope missing result")
  | _ ->
    let code =
      Option.bind
        (Option.bind (Json.member "error" doc) (Json.member "code"))
        Json.to_str_opt
    and msg =
      Option.bind
        (Option.bind (Json.member "error" doc) (Json.member "message"))
        Json.to_str_opt
    in
    Error
      (Printf.sprintf "%s: %s"
         (Option.value code ~default:"error")
         (Option.value msg ~default:"unexplained failure envelope"))
