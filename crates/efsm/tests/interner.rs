//! The interner's storage, alone in its process: one `#[test]`, so the
//! first statement below is the interner's first touch and every id the
//! test sees is its own.

use vids_efsm::intern::{self, sym, InternError, MAX_SYMBOL_LEN};
use vids_efsm::Sym;

#[test]
fn storage_invariants_hold_from_the_first_touch() {
    // The one-time init publishes the seeded names before their ids enter
    // the index, which reads names back through `as_str`: were the order
    // reversed, this lookup would re-enter the initialiser.
    assert_eq!(Sym::lookup("MESSAGE"), Some(sym::METHOD_MESSAGE));
    assert_eq!(Sym::lookup("*"), Some(sym::WILDCARD));
    assert_eq!(Sym::lookup(""), Some(sym::EMPTY));
    assert_eq!(Sym::lookup("δ.open").map(Sym::as_str), Some("δ.open"));
    let seeded = intern::stats();
    assert_eq!(seeded.symbols, Sym::preseeded_count());
    assert_eq!(seeded.text_bytes, 0, "seeds are not copied");
    assert_eq!(seeded.capacity, 64 << 16);

    // A run of maximum-length strings: 257 of them fill a 64 KiB slab to
    // its last byte but one, so 600 cross at least two slab ends, and a
    // string that does not fit the tail must land whole on the next slab.
    // Two-byte characters make a torn copy an invalid one.
    let long = |i: usize| format!("{i:04}{}x", "é".repeat(125));
    for i in 0..600 {
        let text = long(i);
        assert_eq!(text.len(), MAX_SYMBOL_LEN);
        assert_eq!(Sym::lookup(&text), None);
        let sym = Sym::intern(&text);
        // Ids are dense and increasing: the next free slot, every time.
        assert_eq!(sym.id() as usize, seeded.symbols + i);
        assert_eq!(sym.as_str(), text);
        assert_eq!(Sym::lookup(&text), Some(sym));
        assert_eq!(Sym::intern(&text), sym);
    }
    // Earlier symbols were not disturbed by later slabs.
    for i in 0..600 {
        assert_eq!(Sym::lookup(&long(i)).map(Sym::as_str), Some(&*long(i)));
    }
    let filled = intern::stats();
    assert_eq!(filled.symbols, seeded.symbols + 600);
    assert_eq!(filled.text_bytes, 600 * MAX_SYMBOL_LEN);

    // One byte more is refused and leaves nothing behind.
    let too_long = format!("{}y", long(0));
    assert_eq!(Sym::try_intern(&too_long), Err(InternError::TooLong));
    assert_eq!(Sym::lookup(&too_long), None);
    assert_eq!(intern::stats(), filled);
}
