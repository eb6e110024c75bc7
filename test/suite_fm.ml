(* Tests for dsdg_fm: backward search, locate, extract, suffix rows. *)

open Dsdg_fm

let check = Alcotest.(check int)

(* Naive occurrence finder: all (doc, off) with docs.(doc).[off ..] starting
   with p. *)
let naive_search (docs : string array) (p : string) : (int * int) list =
  let res = ref [] in
  let pl = String.length p in
  Array.iteri
    (fun d str ->
      let n = String.length str in
      for off = 0 to n - pl do
        if String.sub str off pl = p then res := (d, off) :: !res
      done)
    docs;
  List.sort compare !res

let fm_search fm p =
  let res = ref [] in
  Fm_index.search fm p ~f:(fun ~doc ~off -> res := (doc, off) :: !res);
  List.sort compare !res

let check_matches msg docs fm p =
  Alcotest.(check (list (pair int int))) msg (naive_search docs p) (fm_search fm p)

let test_basic () =
  let docs = [| "banana"; "bandana"; "ananas" |] in
  let fm = Fm_index.build ~sample:2 docs in
  check "doc_count" 3 (Fm_index.doc_count fm);
  check "total_len" (7 + 8 + 7) (Fm_index.total_len fm);
  check "count ana" 5 (Fm_index.count fm "ana");
  check "count an" 6 (Fm_index.count fm "an");
  check "count zzz" 0 (Fm_index.count fm "zzz");
  List.iter (fun p -> check_matches p docs fm p)
    [ "a"; "an"; "ana"; "anan"; "banana"; "bandana"; "ananas"; "n"; "s"; "x"; "nd" ]

let test_single_doc () =
  let docs = [| "mississippi" |] in
  let fm = Fm_index.build ~sample:3 docs in
  List.iter (fun p -> check_matches p docs fm p)
    [ "i"; "s"; "ss"; "ssi"; "issi"; "mississippi"; "p"; "pi"; "m"; "q" ]

let test_empty_and_tiny_docs () =
  let docs = [| ""; "a"; ""; "ab"; "b" |] in
  let fm = Fm_index.build ~sample:1 docs in
  check "count a" 2 (Fm_index.count fm "a");
  check "count b" 2 (Fm_index.count fm "b");
  check "count ab" 1 (Fm_index.count fm "ab");
  List.iter (fun p -> check_matches p docs fm p) [ "a"; "b"; "ab"; "ba" ]

let test_no_cross_boundary_matches () =
  (* "ab" at the end of doc 0 and "ba" split across docs must not match *)
  let docs = [| "xxab"; "baxx" |] in
  let fm = Fm_index.build ~sample:2 docs in
  check "abba" 0 (Fm_index.count fm "abba");
  check "ab" 1 (Fm_index.count fm "ab");
  check "ba" 1 (Fm_index.count fm "ba")

let test_extract () =
  let docs = [| "the quick brown fox"; "jumps over"; "the lazy dog" |] in
  let fm = Fm_index.build ~sample:4 docs in
  Alcotest.(check string) "full doc" "the quick brown fox" (Fm_index.extract fm ~doc:0 ~off:0 ~len:19);
  Alcotest.(check string) "mid" "quick" (Fm_index.extract fm ~doc:0 ~off:4 ~len:5);
  Alcotest.(check string) "doc1" "over" (Fm_index.extract fm ~doc:1 ~off:6 ~len:4);
  Alcotest.(check string) "doc2 end" "dog" (Fm_index.extract fm ~doc:2 ~off:9 ~len:3);
  Alcotest.(check string) "empty" "" (Fm_index.extract fm ~doc:1 ~off:3 ~len:0);
  Alcotest.check_raises "past end" (Invalid_argument "Fm_index.extract: out of document")
    (fun () -> ignore (Fm_index.extract fm ~doc:2 ~off:9 ~len:4))

let test_suffix_row_roundtrip () =
  let docs = [| "abracadabra"; "cadabra" |] in
  let fm = Fm_index.build ~sample:3 docs in
  for d = 0 to 1 do
    for off = 0 to Fm_index.doc_len fm d - 1 do
      let row = Fm_index.suffix_row fm ~doc:d ~off in
      let d', off' = Fm_index.locate fm row in
      check (Printf.sprintf "doc %d off %d" d off) d d';
      check (Printf.sprintf "off %d.%d" d off) off off'
    done
  done

let test_iter_doc_rows () =
  let docs = [| "abcab"; "cabba" |] in
  let fm = Fm_index.build ~sample:2 docs in
  for d = 0 to 1 do
    let rows = ref [] in
    Fm_index.iter_doc_rows fm d ~f:(fun r -> rows := r :: !rows);
    (* one row per suffix incl. separator; all distinct; they locate to d *)
    let l = Fm_index.doc_len fm d in
    check (Printf.sprintf "row count doc %d" d) (l + 1) (List.length !rows);
    let sorted = List.sort_uniq compare !rows in
    check "distinct" (l + 1) (List.length sorted)
  done

(* The public kernel entries reject out-of-range rows and slices. *)
let test_bounds () =
  let docs = [| "banana"; "band" |] in
  let fm = Fm_index.build ~sample:3 docs in
  let raises what f =
    match f () with
    | _ -> Alcotest.failf "%s did not raise Invalid_argument" what
    | exception Invalid_argument _ -> ()
  in
  raises "locate -1" (fun () -> Fm_index.locate fm (-1));
  raises "locate row_count" (fun () -> Fm_index.locate fm (Fm_index.row_count fm));
  raises "extract off -1" (fun () -> Fm_index.extract fm ~doc:1 ~off:(-1) ~len:2);
  raises "extract len -1" (fun () -> Fm_index.extract fm ~doc:1 ~off:0 ~len:(-1));
  raises "extract past doc" (fun () -> Fm_index.extract fm ~doc:1 ~off:2 ~len:3)

let test_sample_rates () =
  let docs = [| "the rain in spain stays mainly in the plain" |] in
  List.iter
    (fun s ->
      let fm = Fm_index.build ~sample:s docs in
      check_matches (Printf.sprintf "ain s=%d" s) docs fm "ain";
      check_matches (Printf.sprintf "in s=%d" s) docs fm "in";
      Alcotest.(check string) "extract" "spain"
        (Fm_index.extract fm ~doc:0 ~off:12 ~len:5))
    [ 1; 2; 3; 5; 8; 64 ]

let test_space_decreases_with_sample () =
  let doc = String.concat " " (List.init 200 (fun i -> Printf.sprintf "word%d token" i)) in
  let s1 = Fm_index.space_bits (Fm_index.build ~sample:1 [| doc |]) in
  let s16 = Fm_index.space_bits (Fm_index.build ~sample:16 [| doc |]) in
  Alcotest.(check bool) (Printf.sprintf "s=16 (%d) < s=1 (%d)" s16 s1) true (s16 < s1)

let gen_docs =
  (* small alphabet to force many repeats / matches *)
  let gen_doc = QCheck.Gen.(string_size ~gen:(map (fun i -> Char.chr (97 + i)) (int_bound 2)) (0 -- 40)) in
  QCheck.Gen.(list_size (1 -- 6) gen_doc)

let arb_docs = QCheck.make ~print:(fun l -> String.concat "|" l) gen_docs

let prop_search_matches_naive =
  QCheck.Test.make ~name:"fm search = naive search" ~count:150
    QCheck.(pair arb_docs (string_of_size Gen.(1 -- 5)))
    (fun (docs_l, p_raw) ->
      QCheck.assume (String.length p_raw > 0);
      let p = String.map (fun c -> Char.chr (97 + (Char.code c mod 3))) p_raw in
      let docs = Array.of_list docs_l in
      let want = naive_search docs p in
      List.for_all
        (fun sample ->
          let fm = Fm_index.build ~sample docs in
          fm_search fm p = want && Fm_index.count fm p = List.length want)
        [ 1; 3; 8 ])

(* Whole documents and every substring of up to 9 symbols, at sample
   rates where the ISA anchor is the end of the text, one step past the
   slice, or several steps past it. *)
let prop_extract_roundtrip =
  QCheck.Test.make ~name:"fm extract recovers documents" ~count:100 arb_docs
    (fun docs_l ->
      let docs = Array.of_list docs_l in
      let ok = ref true in
      List.iter
        (fun sample ->
          let fm = Fm_index.build ~sample docs in
          Array.iteri
            (fun d str ->
              let n = String.length str in
              if Fm_index.extract fm ~doc:d ~off:0 ~len:n <> str then ok := false;
              for off = 0 to n do
                for len = 0 to min 9 (n - off) do
                  if Fm_index.extract fm ~doc:d ~off ~len <> String.sub str off len then ok := false
                done
              done)
            docs)
        [ 1; 3; 4; 8 ];
      !ok)

let prop_count_equals_range_width =
  QCheck.Test.make ~name:"fm count = |range|" ~count:100
    QCheck.(pair arb_docs (string_of_size Gen.(1 -- 4)))
    (fun (docs_l, p_raw) ->
      QCheck.assume (String.length p_raw > 0);
      let p = String.map (fun c -> Char.chr (97 + (Char.code c mod 3))) p_raw in
      let docs = Array.of_list docs_l in
      let fm = Fm_index.build ~sample:2 docs in
      let c = Fm_index.count fm p in
      match Fm_index.range fm p with
      | None -> c = 0
      | Some (sp, ep) -> c = ep - sp && c > 0)

let qsuite =
  List.map Qc.to_alcotest
    [ prop_search_matches_naive; prop_extract_roundtrip; prop_count_equals_range_width ]

let suite =
  [ ("basic multi-doc", `Quick, test_basic);
    ("single doc", `Quick, test_single_doc);
    ("empty and tiny docs", `Quick, test_empty_and_tiny_docs);
    ("no cross-boundary matches", `Quick, test_no_cross_boundary_matches);
    ("extract", `Quick, test_extract);
    ("suffix_row/locate roundtrip", `Quick, test_suffix_row_roundtrip);
    ("iter_doc_rows", `Quick, test_iter_doc_rows);
    ("sample rates", `Quick, test_sample_rates);
    ("locate/extract bounds", `Quick, test_bounds);
    ("space decreases with sample", `Quick, test_space_decreases_with_sample) ]
  @ qsuite
