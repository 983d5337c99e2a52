type t = {
  library : string;
  version : string;
  load : string;
  subject : string list;
  extensions : (Model.field * string) list;
}

let all =
  [
    {
      library = "OpenSSL";
      version = "3.3.0";
      load = "PEM_read_bio_X509()";
      subject =
        [ "X509_NAME_oneline()"; "X509_NAME_print()"; "X509_NAME_print_ex()" ];
      extensions = [];
    };
    {
      library = "GnuTLS";
      version = "3.7.11";
      load = "gnutls_x509_crt_import()";
      subject =
        [ "gnutls_x509_crt_get_subject_dn()"; "gnutls_x509_crt_get_issuer_dn()" ];
      extensions =
        [ (Model.San, "gnutls_x509_crt_get_subject_alt_name()");
          (Model.Ian, "gnutls_x509_crt_get_issuer_alt_name()");
          (Model.Crldp, "gnutls_x509_crt_get_crl_dist_points()") ];
    };
    {
      library = "PyOpenSSL";
      version = "24.2.1";
      load = "load_certificate()";
      subject = [ "get_subject()"; "get_issuer()" ];
      extensions =
        [ (Model.San, "str(get_extension())"); (Model.Ian, "str(get_extension())");
          (Model.Aia, "str(get_extension())"); (Model.Crldp, "str(get_extension())") ];
    };
    {
      library = "Cryptography";
      version = "42.0.7";
      load = "load_der_x509_certificate()";
      subject = [ "subject.rfc4514_string()"; "issuer.rfc4514_string()" ];
      extensions =
        List.map (fun f -> (f, "get_extension_for_oid().value"))
          [ Model.San; Model.Ian; Model.Aia; Model.Sia; Model.Crldp ];
    };
    {
      library = "Golang Crypto";
      version = "1.23.0";
      load = "ParseCertificate()";
      subject = [ "Subject.ShortName"; "Issuer.ShortName" ];
      extensions =
        [ (Model.San, "SubjectAlternativeName"); (Model.Crldp, "CRLDistributionPoints") ];
    };
    {
      library = "Java.security.cert";
      version = "1.8/11.0/17.0/21.0";
      load = "CertificateFactory.getInstance(\"X.509\").generateCertificate()";
      subject =
        [ "getSubjectDN().toString()"; "getSubjectX500Principal().getName()";
          "getIssuerX500Principal().toString()" ];
      extensions =
        [ (Model.San, "getSubjectAlternativeNames()");
          (Model.Ian, "getIssuerAlternativeNames()") ];
    };
    {
      library = "BouncyCastle";
      version = "1.78.1";
      load = "X509CertificateHolder()";
      subject = [ "getSubject().toString()"; "getIssuer().toString()" ];
      extensions = [];
    };
    {
      library = "Node.js Crypto";
      version = "22.4.1";
      load = "certificateFromPem()";
      subject = [ "subject"; "issuer" ];
      extensions = [ (Model.San, "subjectAltName"); (Model.Aia, "infoAccess") ];
    };
    {
      library = "Forge";
      version = "1.3.1";
      load = "X509Certificate()";
      subject = [ "subject.getField()"; "issuer.getField()" ];
      extensions = [ (Model.San, "getExtension()"); (Model.Ian, "getExtension()") ];
    };
  ]

let find library = List.find_opt (fun a -> a.library = library) all

let render ppf =
  Format.fprintf ppf "== Tables 12/13: tested TLS libraries and APIs ==@.";
  List.iter
    (fun a ->
      Format.fprintf ppf "%-20s %-20s load: %s@." a.library a.version a.load;
      Format.fprintf ppf "    subject/issuer: %s@." (String.concat "; " a.subject);
      if a.extensions <> [] then
        Format.fprintf ppf "    extensions:     %s@."
          (String.concat "; "
             (List.map
                (fun (f, api) -> Printf.sprintf "%s=%s" (Model.field_name f) api)
                a.extensions)))
    all

(* The API table and the behavioural models must agree on field
   support. *)
let () =
  List.iter
    (fun a ->
      match Models.find a.library with
      | None -> invalid_arg ("Apis: unknown model " ^ a.library)
      | Some m ->
          List.iter
            (fun (field, _) ->
              if not (m.Model.supports field) then
                invalid_arg
                  (Printf.sprintf "Apis: %s lists %s but the model rejects it"
                     a.library (Model.field_name field)))
            a.extensions)
    all
