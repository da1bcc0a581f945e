//! `#[derive(Serialize)]` that expands to nothing. The pregelix crates
//! derive it on two stats structs and never serialize through serde.

use proc_macro::TokenStream;

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}
