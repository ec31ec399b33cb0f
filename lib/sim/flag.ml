module Make (V : sig
  val var : string
end) =
struct
  let flag =
    ref
      (match Sys.getenv_opt V.var with
      | Some ("0" | "false" | "off") -> false
      | Some _ | None -> true)

  let enabled () = !flag
  let set b = flag := b

  let with_flag b f =
    let saved = !flag in
    flag := b;
    Fun.protect ~finally:(fun () -> flag := saved) f
end
