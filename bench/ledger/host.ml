(* Host fingerprint: every result carries it, and results whose
   fingerprints differ are never compared.  The git revision identifies
   the code under test, so it is recorded but not part of the match. *)

type t = {
  nproc : int;  (** CPUs this process may run on (what `nproc` prints) *)
  domains : int;  (** [Domain.recommended_domain_count] *)
  profile : string;  (** dune build profile *)
  ocaml : string;
  rev : string;  (** git revision of the checkout, or "unknown" *)
}

let read_lines path =
  match In_channel.with_open_text path In_channel.input_all with
  | s -> String.split_on_char '\n' s
  | exception Sys_error _ -> []

(* Count the CPUs of a "0-3,8,10-11" list. *)
let count_cpu_list s =
  String.split_on_char ',' (String.trim s)
  |> List.fold_left
       (fun n part ->
         match String.split_on_char '-' part with
         | [ a; b ] -> n + int_of_string b - int_of_string a + 1
         | [ a ] when a <> "" -> n + 1
         | _ -> n)
       0

let nproc () =
  let prefix = "Cpus_allowed_list:" in
  let from_status =
    List.find_map
      (fun l ->
        if String.starts_with ~prefix l then
          let v = String.sub l (String.length prefix)
                    (String.length l - String.length prefix) in
          match count_cpu_list v with
          | n when n > 0 -> Some n
          | _ -> None
          | exception Failure _ -> None
        else None)
      (read_lines "/proc/self/status")
  in
  Option.value from_status ~default:(Domain.recommended_domain_count ())

(* HEAD of the checkout's git directory, resolved through loose or packed
   refs without running git. *)
let git_rev () =
  match read_lines ".git/HEAD" with
  | head :: _ when String.starts_with ~prefix:"ref: " head -> (
      let ref_name = String.sub head 5 (String.length head - 5) in
      match read_lines (Filename.concat ".git" ref_name) with
      | rev :: _ when rev <> "" -> rev
      | _ ->
          List.find_map
            (fun l ->
              match String.split_on_char ' ' l with
              | [ rev; name ] when name = ref_name -> Some rev
              | _ -> None)
            (read_lines ".git/packed-refs")
          |> Option.value ~default:"unknown")
  | rev :: _ when rev <> "" -> rev
  | _ -> "unknown"

let current () =
  {
    nproc = nproc ();
    domains = Domain.recommended_domain_count ();
    profile = Build_info.profile;
    ocaml = Sys.ocaml_version;
    rev = git_rev ();
  }

let same_host a b =
  a.nproc = b.nproc && a.domains = b.domains && a.profile = b.profile
  && a.ocaml = b.ocaml

let to_json h =
  Nvmtrace.Json.(
    Obj
      [
        ("nproc", Int h.nproc);
        ("domains", Int h.domains);
        ("profile", Str h.profile);
        ("ocaml", Str h.ocaml);
        ("rev", Str h.rev);
      ])

let of_json j =
  let open Nvmtrace.Json in
  let int k = match member k j with Some (Int n) -> Some n | _ -> None in
  let str k = match member k j with Some (Str s) -> Some s | _ -> None in
  match (int "nproc", int "domains", str "profile", str "ocaml", str "rev") with
  | Some nproc, Some domains, Some profile, Some ocaml, Some rev ->
      Some { nproc; domains; profile; ocaml; rev }
  | _ -> None

let to_string h =
  Printf.sprintf "nproc=%d domains=%d profile=%s ocaml=%s rev=%s" h.nproc
    h.domains h.profile h.ocaml h.rev
