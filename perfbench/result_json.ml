(** The result line every run ends with: one JSON object with exactly the
    keys [correct], [attempted], [failed] and [metrics]. *)

type metric = { name : string; value : float; unit_ : string }

let escape s =
  String.concat "" (List.map (function '"' -> "\\\"" | '\\' -> "\\\\" | c -> String.make 1 c)
                      (List.init (String.length s) (String.get s)))

(* every digit the float has: %.17g round-trips, and integral values
   print without a fraction *)
let number x =
  if not (Float.is_finite x) then invalid_arg "Result_json.number: not finite";
  Printf.sprintf "%.17g" x

let line ~correct ~attempted ~failed metrics =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed
    (String.concat ", "
       (List.map
          (fun m ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" (escape m.name)
              (number m.value) (escape m.unit_))
          metrics))
