type table = { name : string; header : string list; rows : string list list }

let of_series ~name ~index_label columns =
  let n = List.fold_left (fun acc (_, a) -> max acc (Array.length a)) 0 columns in
  let rows =
    List.init n (fun i ->
        string_of_int i
        :: List.map
             (fun (_, a) -> if i < Array.length a then Printf.sprintf "%.6f" a.(i) else "")
             columns)
  in
  { name; header = index_label :: List.map fst columns; rows }

let pad ~left width s =
  let n = String.length s in
  if n >= width then s
  else
    let fill = String.make (width - n) ' ' in
    if left then s ^ fill else fill ^ s

let render ~header rows =
  let ncols = List.fold_left (fun acc r -> max acc (List.length r)) (List.length header) rows in
  let cell row i = match List.nth_opt row i with Some c -> c | None -> "" in
  let width i =
    List.fold_left (fun acc r -> max acc (String.length (cell r i))) (String.length (cell header i)) rows
  in
  let widths = List.init ncols width in
  let line row =
    let cells = List.mapi (fun i w -> pad ~left:(i = 0) w (cell row i)) widths in
    "| " ^ String.concat " | " cells ^ " |"
  in
  let rule =
    let dashes = List.map (fun w -> String.make (w + 2) '-') widths in
    "+" ^ String.concat "+" dashes ^ "+"
  in
  let body = List.map line rows in
  String.concat "\n" ((rule :: line header :: rule :: body) @ [ rule ]) ^ "\n"

let print ~header rows = print_string (render ~header rows)

let print_table t =
  Printf.printf "== %s ==\n" t.name;
  print ~header:t.header t.rows

let csv ~header rows =
  let check cell =
    if String.exists (fun c -> c = ',' || c = '\n') cell then
      invalid_arg "Tablefmt.csv: cell contains separator";
    cell
  in
  let line row = String.concat "," (List.map check row) in
  String.concat "\n" (line header :: List.map line rows) ^ "\n"
