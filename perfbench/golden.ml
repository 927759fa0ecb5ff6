(* Committed reference outputs under perfbench/golden/, read relative to
   the checkout root the benchmark runs from. *)

let dir = Filename.concat "perfbench" "golden"

let read name = In_channel.with_open_bin (Filename.concat dir name) In_channel.input_all

(* [key value] lines; '#' starts a comment. *)
let read_table name =
  String.split_on_char '\n' (read name)
  |> List.filter_map (fun line ->
         match String.split_on_char ' ' (String.trim line) with
         | [ k; v ] when k <> "" && k.[0] <> '#' -> Some (k, v)
         | _ -> None)
