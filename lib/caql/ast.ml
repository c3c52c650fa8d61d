module L = Braid_logic
module RP = Braid_relalg.Row_pred

type comparison = RP.cmp * L.Literal.expr * L.Literal.expr

type conj = {
  head : L.Term.t list;
  atoms : L.Atom.t list;
  cmps : comparison list;
}

type t =
  | Conj of conj
  | Union of t list
  | Diff of t * t
  | Distinct of t
  | Division of t * t
  | Fixpoint of fixpoint
  | Agg of agg

and fixpoint = {
  name : string;
  base : t;
  step : t;
}

and agg = {
  keys : int list;
  specs : Braid_relalg.Aggregate.spec list;
  source : t;
}

let conj ?(cmps = []) head atoms = { head; atoms; cmps }

let rec head_arity = function
  | Conj c -> List.length c.head
  | Union [] -> invalid_arg "Ast.head_arity: empty union"
  | Union (q :: _) -> head_arity q
  | Diff (a, _) -> head_arity a
  | Distinct q -> head_arity q
  | Division (dividend, divisor) -> head_arity dividend - head_arity divisor
  | Fixpoint f -> head_arity f.base
  | Agg a -> List.length a.keys + List.length a.specs

let uniq xs =
  let rec loop seen = function
    | [] -> List.rev seen
    | x :: rest -> loop (if List.mem x seen then seen else x :: seen) rest
  in
  loop [] xs

let term_vars = function L.Term.Var x -> [ x ] | L.Term.Const _ -> []

let cmp_vars (_, a, b) = L.Literal.expr_vars a @ L.Literal.expr_vars b

let body_vars c =
  uniq (List.concat_map L.Atom.vars c.atoms @ List.concat_map cmp_vars c.cmps)

let conj_vars c =
  uniq (List.concat_map term_vars c.head @ body_vars c)

let head_constants c =
  List.filter_map (function L.Term.Const v -> Some v | L.Term.Var _ -> None) c.head

let constants c =
  head_constants c
  @ List.concat_map L.Atom.constants c.atoms
  @ List.concat_map
      (fun (_, a, b) ->
        let rec consts = function
          | L.Literal.Term (L.Term.Const v) -> [ v ]
          | L.Literal.Term (L.Term.Var _) -> []
          | L.Literal.Add (x, y) | L.Literal.Sub (x, y) | L.Literal.Mul (x, y) | L.Literal.Div (x, y)
            -> consts x @ consts y
        in
        consts a @ consts b)
      c.cmps

let apply_subst s c =
  let apply_cmp (op, a, b) =
    match L.Literal.apply s (L.Literal.Cmp (op, a, b)) with
    | L.Literal.Cmp (op, a, b) -> (op, a, b)
    | L.Literal.Rel _ -> assert false
  in
  {
    head = List.map (L.Subst.resolve s) c.head;
    atoms = List.map (L.Subst.apply_atom s) c.atoms;
    cmps = List.map apply_cmp c.cmps;
  }

let rename_vars f c =
  let rename_cmp (op, a, b) =
    match L.Literal.rename f (L.Literal.Cmp (op, a, b)) with
    | L.Literal.Cmp (op, a, b) -> (op, a, b)
    | L.Literal.Rel _ -> assert false
  in
  {
    head = List.map (function L.Term.Var x -> L.Term.Var (f x) | t -> t) c.head;
    atoms = List.map (L.Atom.rename f) c.atoms;
    cmps = List.map rename_cmp c.cmps;
  }

(* --- structural query identity ---

   A conjunct's identity is its canonical renaming — variables numbered in
   order of first occurrence (head, then atoms, then comparisons) — compared
   structurally, with a hash folded over the same walk. Nothing is printed:
   constants compare and hash through [Value.equal] / [Value.hash], so
   [p(X, 2.5)] and [p(X, 2.5000004)] are different queries, while [2] and
   [2.0] (equal values) are the same one. *)

let canonical_names = Array.init 32 (Printf.sprintf "v%d")

let canonical_name n =
  if n < Array.length canonical_names then canonical_names.(n) else Printf.sprintf "v%d" n

let mix h x = (h lxor x) * 0x100000001b3

let cmp_tag : RP.cmp -> int = function
  | RP.Eq -> 0
  | RP.Ne -> 1
  | RP.Lt -> 2
  | RP.Le -> 3
  | RP.Gt -> 4
  | RP.Ge -> 5

let rec var_number x = function
  | [] -> None
  | (y, n) :: rest -> if String.equal x y then Some n else var_number x rest

(* One walk renames and hashes; the hash is never used on its own, only to
   bucket keys that [key_equal] then compares structurally. *)
let canonicalize c =
  let seen = ref [] and next = ref 0 in
  let h = ref (mix (List.length c.head) (List.length c.atoms)) in
  let fold x = h := mix !h x in
  let term = function
    | L.Term.Var x ->
      let n =
        match var_number x !seen with
        | Some n -> n
        | None ->
          let n = !next in
          incr next;
          seen := (x, n) :: !seen;
          n
      in
      fold 1;
      fold n;
      L.Term.Var (canonical_name n)
    | L.Term.Const v as t ->
      fold 2;
      fold (Braid_relalg.Value.hash v);
      t
  in
  let rec expr = function
    | L.Literal.Term t -> L.Literal.Term (term t)
    | L.Literal.Add (a, b) -> bin 3 (fun a b -> L.Literal.Add (a, b)) a b
    | L.Literal.Sub (a, b) -> bin 4 (fun a b -> L.Literal.Sub (a, b)) a b
    | L.Literal.Mul (a, b) -> bin 5 (fun a b -> L.Literal.Mul (a, b)) a b
    | L.Literal.Div (a, b) -> bin 6 (fun a b -> L.Literal.Div (a, b)) a b
  and bin tag mk a b =
    fold tag;
    let a = expr a in
    let b = expr b in
    mk a b
  in
  let atom (a : L.Atom.t) =
    fold (Hashtbl.hash (a.L.Atom.pred : string));
    fold (List.length a.L.Atom.args);
    L.Atom.make a.L.Atom.pred (List.map term a.L.Atom.args)
  in
  let cmp (op, a, b) =
    fold (cmp_tag op);
    let a = expr a in
    let b = expr b in
    (op, a, b)
  in
  let head = List.map term c.head in
  let atoms = List.map atom c.atoms in
  let cmps = List.map cmp c.cmps in
  ({ head; atoms; cmps }, !h)

type key = { canon : conj; hash : int }

let key c =
  let canon, h = canonicalize c in
  { canon; hash = (h lxor (h lsr 31)) land max_int }

let key_hash k = k.hash

let rec expr_equal a b =
  match a, b with
  | L.Literal.Term x, L.Literal.Term y -> L.Term.equal x y
  | L.Literal.Add (a, b), L.Literal.Add (a', b')
  | L.Literal.Sub (a, b), L.Literal.Sub (a', b')
  | L.Literal.Mul (a, b), L.Literal.Mul (a', b')
  | L.Literal.Div (a, b), L.Literal.Div (a', b') ->
    expr_equal a a' && expr_equal b b'
  | (L.Literal.Term _ | L.Literal.Add _ | L.Literal.Sub _ | L.Literal.Mul _ | L.Literal.Div _), _
    ->
    false

let cmp_equal (op, a, b) (op', a', b') =
  cmp_tag op = cmp_tag op' && expr_equal a a' && expr_equal b b'

let key_equal a b =
  a.hash = b.hash
  && List.equal L.Term.equal a.canon.head b.canon.head
  && List.equal L.Atom.equal a.canon.atoms b.canon.atoms
  && List.equal cmp_equal a.canon.cmps b.canon.cmps

module Key_table = Hashtbl.Make (struct
  type t = key

  let equal = key_equal
  let hash = key_hash
end)

let variant_equal a b = key_equal (key a) (key b)

let pp_sep s ppf () = Format.fprintf ppf "%s" s

let pp_cmp_lit ppf (op, a, b) = L.Literal.pp ppf (L.Literal.Cmp (op, a, b))

let pp_conj ppf c =
  Format.fprintf ppf "(%a) :- %a"
    (Format.pp_print_list ~pp_sep:(pp_sep ", ") L.Term.pp)
    c.head
    (Format.pp_print_list ~pp_sep:(pp_sep " & ") (fun ppf x -> x ppf))
    (List.map (fun a ppf -> L.Atom.pp ppf a) c.atoms
    @ List.map (fun cmp ppf -> pp_cmp_lit ppf cmp) c.cmps)

let conj_to_string c = Format.asprintf "%a" pp_conj c

let rec pp ppf = function
  | Conj c -> pp_conj ppf c
  | Union qs ->
    Format.fprintf ppf "(%a)" (Format.pp_print_list ~pp_sep:(pp_sep " | ") pp) qs
  | Diff (a, b) -> Format.fprintf ppf "(%a EXCEPT %a)" pp a pp b
  | Distinct q -> Format.fprintf ppf "SETOF(%a)" pp q
  | Division (a, b) -> Format.fprintf ppf "(%a DIVIDE %a)" pp a pp b
  | Fixpoint f -> Format.fprintf ppf "FIX %s = (%a) UNION (%a)" f.name pp f.base pp f.step
  | Agg a ->
    Format.fprintf ppf "AGG[keys=%a; %a](%a)"
      (Format.pp_print_list ~pp_sep:(pp_sep ",") Format.pp_print_int)
      a.keys
      (Format.pp_print_list ~pp_sep:(pp_sep ",") (fun ppf sp ->
           Format.pp_print_string ppf (Braid_relalg.Aggregate.name_of_spec sp)))
      a.specs pp a.source

let to_string q = Format.asprintf "%a" pp q
