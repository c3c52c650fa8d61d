type metric = { name : string; value : float; unit_ : string }
type t = { correct : bool; attempted : int; failed : int; metrics : metric list }

let quote s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let number v =
  if not (Float.is_finite v) then invalid_arg "Result_json: non-finite value";
  Printf.sprintf "%.17g" v

let to_string r =
  let names = List.map (fun m -> m.name) r.metrics in
  if List.length (List.sort_uniq compare names) <> List.length names then
    invalid_arg "Result_json: duplicate metric name";
  let metric m =
    Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (quote m.name) (number m.value)
      (quote m.unit_)
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    r.correct r.attempted r.failed
    (String.concat ", " (List.map metric r.metrics))

(* A small JSON reader, enough for the result line. *)
type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Bad of string

let parse_exn s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let rec ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') -> incr pos; ws ()
    | _ -> ()
  in
  let expect c =
    ws ();
    if peek () = Some c then incr pos else raise (Bad (Printf.sprintf "expected %c at %d" c !pos))
  in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word then (
      pos := !pos + String.length word;
      v)
    else raise (Bad (Printf.sprintf "bad literal at %d" !pos))
  in
  let string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> raise (Bad "unterminated string")
      | Some '"' -> incr pos
      | Some '\\' ->
        (match if !pos + 1 < n then Some s.[!pos + 1] else None with
         | Some 'n' -> Buffer.add_char b '\n'; pos := !pos + 2
         | Some 'u' when !pos + 5 < n ->
           Buffer.add_char b (Char.chr (int_of_string ("0x" ^ String.sub s (!pos + 2) 4) land 0xff));
           pos := !pos + 6
         | Some c -> Buffer.add_char b c; pos := !pos + 2
         | None -> raise (Bad "bad escape"));
        go ()
      | Some c -> Buffer.add_char b c; incr pos; go ()
    in
    go ();
    Buffer.contents b
  in
  let rec value () =
    ws ();
    match peek () with
    | Some '{' ->
      incr pos;
      ws ();
      if peek () = Some '}' then (incr pos; Obj [])
      else
        let rec members acc =
          let k = string () in
          expect ':';
          let v = value () in
          ws ();
          match peek () with
          | Some ',' -> incr pos; members ((k, v) :: acc)
          | Some '}' -> incr pos; Obj (List.rev ((k, v) :: acc))
          | _ -> raise (Bad (Printf.sprintf "expected , or } at %d" !pos))
        in
        members []
    | Some '[' ->
      incr pos;
      ws ();
      if peek () = Some ']' then (incr pos; Arr [])
      else
        let rec items acc =
          let v = value () in
          ws ();
          match peek () with
          | Some ',' -> incr pos; items (v :: acc)
          | Some ']' -> incr pos; Arr (List.rev (v :: acc))
          | _ -> raise (Bad (Printf.sprintf "expected , or ] at %d" !pos))
        in
        items []
    | Some '"' -> Str (string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ ->
      let start = !pos in
      while
        match peek () with
        | Some ('0' .. '9' | '-' | '+' | '.' | 'e' | 'E') -> true
        | _ -> false
      do
        incr pos
      done;
      (match float_of_string_opt (String.sub s start (!pos - start)) with
       | Some f when !pos > start -> Num f
       | _ -> raise (Bad (Printf.sprintf "bad value at %d" start)))
    | None -> raise (Bad "unexpected end")
  in
  let v = value () in
  ws ();
  if !pos <> n then raise (Bad (Printf.sprintf "trailing input at %d" !pos));
  v

let parse s = try Ok (parse_exn s) with Bad msg -> Error msg

let exact_keys what keys fields =
  let got = List.sort compare (List.map fst fields) in
  if got <> List.sort compare keys then
    raise (Bad (Printf.sprintf "%s keys: %s" what (String.concat "," got)))

let of_string s =
  let int_of = function
    | Num f when Float.is_integer f -> int_of_float f
    | _ -> raise (Bad "expected an integer")
  in
  try
    match parse_exn s with
    | Obj fields ->
      exact_keys "result" [ "correct"; "attempted"; "failed"; "metrics" ] fields;
      let correct =
        match List.assoc "correct" fields with Bool b -> b | _ -> raise (Bad "correct")
      in
      let metrics =
        match List.assoc "metrics" fields with
        | Obj ms ->
          List.map
            (fun (name, m) ->
              match m with
              | Obj kv ->
                exact_keys name [ "value"; "unit" ] kv;
                (match (List.assoc "value" kv, List.assoc "unit" kv) with
                 | Num value, Str unit_ -> { name; value; unit_ }
                 | _ -> raise (Bad name))
              | _ -> raise (Bad name))
            ms
        | _ -> raise (Bad "metrics")
      in
      Ok
        {
          correct;
          attempted = int_of (List.assoc "attempted" fields);
          failed = int_of (List.assoc "failed" fields);
          metrics;
        }
    | _ -> Error "not an object"
  with Bad msg -> Error msg
