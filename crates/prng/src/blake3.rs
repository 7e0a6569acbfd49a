//! A from-scratch implementation of the BLAKE3 cryptographic hash.
//!
//! Follows the reference implementation structure from the BLAKE3 paper:
//! 1024-byte chunks of sixteen 64-byte blocks, a binary Merkle tree over
//! chunk chaining values, and an extendable-output root. Supports plain
//! hashing, keyed hashing, and XOF output — everything the CHOCO PRNG
//! needs. Validated against the official test vectors in this module's
//! tests.
//!
//! Two places compress eight blocks at once through
//! [`choco_math::simd`]'s 8-lane kernels when a vector backend is active:
//! the XOF, which produces output blocks eight counters at a time, and
//! [`Hasher::update`], which hashes eight whole chunks at once when more
//! input follows them (a chunk followed by more input is never the root).
//! Both produce the bytes the one-block-at-a-time scalar code here does;
//! [`Hasher::scalar`] and [`crate::Blake3Rng::scalar`] switch the 8-lane
//! path off, so tests and benches can race one against the other.

use choco_math::simd;

const OUT_LEN: usize = 32;
const BLOCK_LEN: usize = 64;
const CHUNK_LEN: usize = 1024;
/// Compressions the 8-lane kernels run at once.
const LANES: usize = 8;

const CHUNK_START: u32 = 1 << 0;
const CHUNK_END: u32 = 1 << 1;
const PARENT: u32 = 1 << 2;
const ROOT: u32 = 1 << 3;
const KEYED_HASH: u32 = 1 << 4;

const IV: [u32; 8] = [
    0x6A09E667, 0xBB67AE85, 0x3C6EF372, 0xA54FF53A, 0x510E527F, 0x9B05688C, 0x1F83D9AB, 0x5BE0CD19,
];

const MSG_PERMUTATION: [usize; 16] = [2, 6, 3, 10, 7, 0, 4, 13, 1, 11, 12, 5, 9, 14, 15, 8];

#[inline(always)]
fn g(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize, mx: u32, my: u32) {
    state[a] = state[a].wrapping_add(state[b]).wrapping_add(mx);
    state[d] = (state[d] ^ state[a]).rotate_right(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_right(12);
    state[a] = state[a].wrapping_add(state[b]).wrapping_add(my);
    state[d] = (state[d] ^ state[a]).rotate_right(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_right(7);
}

fn round(state: &mut [u32; 16], m: &[u32; 16]) {
    // Columns.
    g(state, 0, 4, 8, 12, m[0], m[1]);
    g(state, 1, 5, 9, 13, m[2], m[3]);
    g(state, 2, 6, 10, 14, m[4], m[5]);
    g(state, 3, 7, 11, 15, m[6], m[7]);
    // Diagonals.
    g(state, 0, 5, 10, 15, m[8], m[9]);
    g(state, 1, 6, 11, 12, m[10], m[11]);
    g(state, 2, 7, 8, 13, m[12], m[13]);
    g(state, 3, 4, 9, 14, m[14], m[15]);
}

fn permute(m: &mut [u32; 16]) {
    let mut permuted = [0u32; 16];
    for i in 0..16 {
        permuted[i] = m[MSG_PERMUTATION[i]];
    }
    *m = permuted;
}

fn compress(
    chaining_value: &[u32; 8],
    block_words: &[u32; 16],
    counter: u64,
    block_len: u32,
    flags: u32,
) -> [u32; 16] {
    let mut state = [
        chaining_value[0],
        chaining_value[1],
        chaining_value[2],
        chaining_value[3],
        chaining_value[4],
        chaining_value[5],
        chaining_value[6],
        chaining_value[7],
        IV[0],
        IV[1],
        IV[2],
        IV[3],
        counter as u32,
        (counter >> 32) as u32,
        block_len,
        flags,
    ];
    let mut block = *block_words;
    for r in 0..7 {
        round(&mut state, &block);
        if r < 6 {
            permute(&mut block);
        }
    }
    for i in 0..8 {
        state[i] ^= state[i + 8];
        state[i + 8] ^= chaining_value[i];
    }
    state
}

fn words_from_block(bytes: &[u8]) -> [u32; 16] {
    debug_assert!(bytes.len() <= BLOCK_LEN);
    let mut words = [0u32; 16];
    for (i, chunk) in bytes.chunks(4).enumerate() {
        let mut buf = [0u8; 4];
        buf[..chunk.len()].copy_from_slice(chunk);
        words[i] = u32::from_le_bytes(buf);
    }
    words
}

fn first_8_words(words: [u32; 16]) -> [u32; 8] {
    let mut out = [0u32; 8];
    out.copy_from_slice(&words[..8]);
    out
}

/// The pending output of a chunk or parent node; can be finalized into a
/// chaining value or expanded as the root.
#[derive(Clone)]
struct Output {
    input_chaining_value: [u32; 8],
    block_words: [u32; 16],
    counter: u64,
    block_len: u32,
    flags: u32,
}

impl Output {
    fn chaining_value(&self) -> [u32; 8] {
        first_8_words(compress(
            &self.input_chaining_value,
            &self.block_words,
            self.counter,
            self.block_len,
            self.flags,
        ))
    }

    /// Root output from block `counter` on: eight blocks per 8-lane
    /// compression while `wide` and whole groups of eight remain, then one
    /// block at a time.
    fn root_output_bytes(&self, out: &mut [u8], mut counter: u64, wide: bool) {
        let (cv, block) = (&self.input_chaining_value, &self.block_words);
        let flags = self.flags | ROOT;
        let (groups, rest) = out.as_chunks_mut::<{ LANES * BLOCK_LEN }>();
        for group in groups {
            if !(wide && simd::blake3_root8(cv, block, counter, self.block_len, flags, group)) {
                self.root_blocks(group, counter);
            }
            counter += LANES as u64;
        }
        self.root_blocks(rest, counter);
    }

    /// Root output from block `counter` on, one compression per block.
    fn root_blocks(&self, out: &mut [u8], mut counter: u64) {
        for out_block in out.chunks_mut(2 * OUT_LEN) {
            let words = compress(
                &self.input_chaining_value,
                &self.block_words,
                counter,
                self.block_len,
                self.flags | ROOT,
            );
            for (word, dst) in words.iter().zip(out_block.chunks_mut(4)) {
                dst.copy_from_slice(&word.to_le_bytes()[..dst.len()]);
            }
            counter += 1;
        }
    }
}

#[derive(Clone)]
struct ChunkState {
    chaining_value: [u32; 8],
    chunk_counter: u64,
    block: [u8; BLOCK_LEN],
    block_len: u8,
    blocks_compressed: u8,
    flags: u32,
}

impl ChunkState {
    fn new(key_words: [u32; 8], chunk_counter: u64, flags: u32) -> Self {
        ChunkState {
            chaining_value: key_words,
            chunk_counter,
            block: [0; BLOCK_LEN],
            block_len: 0,
            blocks_compressed: 0,
            flags,
        }
    }

    fn len(&self) -> usize {
        BLOCK_LEN * self.blocks_compressed as usize + self.block_len as usize
    }

    fn start_flag(&self) -> u32 {
        if self.blocks_compressed == 0 {
            CHUNK_START
        } else {
            0
        }
    }

    fn update(&mut self, mut input: &[u8]) {
        while !input.is_empty() {
            // If the block buffer is full, compress it (it is not the last).
            if self.block_len as usize == BLOCK_LEN {
                let block_words = words_from_block(&self.block);
                self.chaining_value = first_8_words(compress(
                    &self.chaining_value,
                    &block_words,
                    self.chunk_counter,
                    BLOCK_LEN as u32,
                    self.flags | self.start_flag(),
                ));
                self.blocks_compressed += 1;
                self.block = [0; BLOCK_LEN];
                self.block_len = 0;
            }
            let want = BLOCK_LEN - self.block_len as usize;
            let take = want.min(input.len());
            self.block[self.block_len as usize..self.block_len as usize + take]
                .copy_from_slice(&input[..take]);
            self.block_len += take as u8;
            input = &input[take..];
        }
    }

    fn output(&self) -> Output {
        Output {
            input_chaining_value: self.chaining_value,
            block_words: words_from_block(&self.block[..self.block_len as usize]),
            counter: self.chunk_counter,
            block_len: self.block_len as u32,
            flags: self.flags | self.start_flag() | CHUNK_END,
        }
    }
}

fn parent_output(left: [u32; 8], right: [u32; 8], key_words: [u32; 8], flags: u32) -> Output {
    let mut block_words = [0u32; 16];
    block_words[..8].copy_from_slice(&left);
    block_words[8..].copy_from_slice(&right);
    Output {
        input_chaining_value: key_words,
        block_words,
        counter: 0,
        block_len: BLOCK_LEN as u32,
        flags: PARENT | flags,
    }
}

/// An incremental BLAKE3 hasher.
///
/// # Example
///
/// ```
/// use choco_prng::blake3::Hasher;
///
/// let mut h = Hasher::new();
/// h.update(b"hello ");
/// h.update(b"world");
/// let digest = h.finalize();
/// assert_eq!(digest.len(), 32);
/// ```
#[derive(Clone)]
pub struct Hasher {
    chunk_state: ChunkState,
    key_words: [u32; 8],
    cv_stack: Vec<[u32; 8]>,
    flags: u32,
    /// Whether the 8-lane kernels may run (see [`Hasher::scalar`]).
    wide: bool,
}

impl Default for Hasher {
    fn default() -> Self {
        Self::new()
    }
}

impl Hasher {
    /// A hasher for the plain (unkeyed) hash mode.
    pub fn new() -> Self {
        Self::new_internal(IV, 0)
    }

    /// A hasher for the keyed hash mode with a 32-byte key.
    pub fn new_keyed(key: &[u8; 32]) -> Self {
        let mut key_words = [0u32; 8];
        for (w, chunk) in key_words.iter_mut().zip(key.chunks_exact(4)) {
            let mut bytes = [0u8; 4];
            bytes.copy_from_slice(chunk);
            *w = u32::from_le_bytes(bytes);
        }
        Self::new_internal(key_words, KEYED_HASH)
    }

    fn new_internal(key_words: [u32; 8], flags: u32) -> Self {
        Hasher {
            chunk_state: ChunkState::new(key_words, 0, flags),
            key_words,
            cv_stack: Vec::new(),
            flags,
            wide: true,
        }
    }

    /// This hasher, and every output it finalizes, on the one-block-at-a-
    /// time scalar code alone: the twin the 8-lane path is tested and
    /// timed against. The bytes are the same either way.
    pub fn scalar(mut self) -> Self {
        self.wide = false;
        self
    }

    fn add_chunk_chaining_value(&mut self, mut new_cv: [u32; 8], mut total_chunks: u64) {
        // Merge subtrees along the right edge: a completed subtree exists for
        // every trailing zero bit of the chunk count.
        while total_chunks & 1 == 0 {
            let left = self.cv_stack.pop().expect("cv stack underflow");
            new_cv = parent_output(left, new_cv, self.key_words, self.flags).chaining_value();
            total_chunks >>= 1;
        }
        self.cv_stack.push(new_cv);
    }

    /// Absorbs input bytes.
    pub fn update(&mut self, mut input: &[u8]) -> &mut Self {
        while !input.is_empty() {
            // If the current chunk is full, finalize it into the tree.
            if self.chunk_state.len() == CHUNK_LEN {
                let chunk_cv = self.chunk_state.output().chaining_value();
                let total_chunks = self.chunk_state.chunk_counter + 1;
                self.add_chunk_chaining_value(chunk_cv, total_chunks);
                self.chunk_state = ChunkState::new(self.key_words, total_chunks, self.flags);
            }
            if let Some(rest) = self.update_wide(input) {
                input = rest;
                continue;
            }
            let want = CHUNK_LEN - self.chunk_state.len();
            let take = want.min(input.len());
            self.chunk_state.update(&input[..take]);
            input = &input[take..];
        }
        self
    }

    /// Hashes the next eight whole chunks at once and returns the input
    /// after them, or `None` (nothing absorbed) unless the current chunk is
    /// empty, more input follows the eight — so none of them is the root —
    /// and an 8-lane kernel runs.
    fn update_wide<'a>(&mut self, input: &'a [u8]) -> Option<&'a [u8]> {
        let (chunks, rest) = input.split_first_chunk::<{ LANES * CHUNK_LEN }>()?;
        if !self.wide || self.chunk_state.len() != 0 || rest.is_empty() {
            return None;
        }
        let counter = self.chunk_state.chunk_counter;
        let mut cvs = [[0u32; 8]; LANES];
        if !simd::blake3_chunks8(chunks, &self.key_words, counter, self.flags, &mut cvs) {
            return None;
        }
        for (total_chunks, cv) in (counter + 1..).zip(cvs) {
            self.add_chunk_chaining_value(cv, total_chunks);
        }
        self.chunk_state = ChunkState::new(self.key_words, counter + LANES as u64, self.flags);
        Some(rest)
    }

    fn root(&self) -> Output {
        let mut output = self.chunk_state.output();
        for &left in self.cv_stack.iter().rev() {
            output = parent_output(left, output.chaining_value(), self.key_words, self.flags);
        }
        output
    }

    /// Produces the standard 32-byte digest.
    pub fn finalize(&self) -> [u8; 32] {
        let mut out = [0u8; 32];
        self.root().root_output_bytes(&mut out, 0, self.wide);
        out
    }

    /// Fills `out` with extendable output (XOF) bytes starting at offset 0.
    pub fn finalize_xof(&self, out: &mut [u8]) {
        self.root().root_output_bytes(out, 0, self.wide);
    }

    /// Returns an [`XofReader`] for streaming unbounded output.
    pub fn finalize_xof_reader(&self) -> XofReader {
        XofReader {
            output: self.root(),
            counter: 0,
            buf: [0u8; LANES * BLOCK_LEN],
            buf_pos: LANES * BLOCK_LEN,
            wide: self.wide,
        }
    }
}

/// Streams XOF output 512 bytes — eight output blocks, one 8-lane
/// compression — at a time.
///
/// Output blocks are indexed by a counter, so the stream is seekable:
/// [`XofReader::skip`] costs one group of eight blocks whatever the
/// distance.
pub struct XofReader {
    output: Output,
    /// Index of the group of eight blocks after the one in `buf`.
    counter: u64,
    buf: [u8; LANES * BLOCK_LEN],
    buf_pos: usize,
    wide: bool,
}

impl XofReader {
    /// Makes group `index` (blocks `8·index..8·index + 8`) the buffered
    /// one, read from `offset` on.
    fn load(&mut self, index: u64, offset: usize) {
        let first_block = index * LANES as u64;
        self.output
            .root_output_bytes(&mut self.buf, first_block, self.wide);
        self.counter = index + 1;
        self.buf_pos = offset;
    }

    /// The scalar twin of this reader (see [`Hasher::scalar`]).
    pub(crate) fn scalar(mut self) -> Self {
        self.wide = false;
        self
    }

    /// Fills `out` with the next output bytes, a buffered group's remainder
    /// at a time.
    pub fn fill(&mut self, mut out: &mut [u8]) {
        while !out.is_empty() {
            if self.buf_pos == self.buf.len() {
                self.load(self.counter, 0);
            }
            let (_, buffered) = self.buf.split_at(self.buf_pos);
            let take = buffered.len().min(out.len());
            let (head, tail) = std::mem::take(&mut out).split_at_mut(take);
            head.copy_from_slice(buffered.split_at(take).0);
            self.buf_pos += take;
            out = tail;
        }
    }

    /// Advances the stream by `n` bytes without producing them: the group
    /// the new position falls in is generated, nothing before it.
    pub fn skip(&mut self, n: u64) {
        let group = self.buf.len() as u64;
        // The buffered group is `counter − 1`; a fresh reader (counter 0)
        // holds an exhausted buffer, so this is 0 there.
        let pos = self.counter * group - (group - self.buf_pos as u64) + n;
        self.load(pos / group, (pos % group) as usize);
    }
}

/// Convenience one-shot hash.
pub fn hash(input: &[u8]) -> [u8; 32] {
    let mut h = Hasher::new();
    h.update(input);
    h.finalize()
}

/// Convenience one-shot keyed hash.
pub fn keyed_hash(key: &[u8; 32], input: &[u8]) -> [u8; 32] {
    let mut h = Hasher::new_keyed(key);
    h.update(input);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Official test vectors: input byte `i` is `i % 251`.
    fn tv_input(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i % 251) as u8).collect()
    }

    #[test]
    fn empty_input_matches_spec() {
        assert_eq!(
            hex(&hash(b"")),
            "af1349b9f5f9a1a6a0404dea36dcc9499bcb25c9adc112b7cc9a93cae41f3262"
        );
    }

    #[test]
    fn official_vectors_single_chunk() {
        let cases = [
            (
                1usize,
                "2d3adedff11b61f14c886e35afa036736dcd87a74d27b5c1510225d0f592e213",
            ),
            (
                63,
                "e9bc37a594daad83be9470df7f7b3798297c3d834ce80ba85d6e207627b7db7b",
            ),
            (
                64,
                "4eed7141ea4a5cd4b788606bd23f46e212af9cacebacdc7d1f4c6dc7f2511b98",
            ),
            (
                65,
                "de1e5fa0be70df6d2be8fffd0e99ceaa8eb6e8c93a63f2d8d1c30ecb6b263dee",
            ),
            (
                127,
                "d81293fda863f008c09e92fc382a81f5a0b4a1251cba1634016a0f86a6bd640d",
            ),
            (
                128,
                "f17e570564b26578c33bb7f44643f539624b05df1a76c81f30acd548c44b45ef",
            ),
            (
                1023,
                "10108970eeda3eb932baac1428c7a2163b0e924c9a9e25b35bba72b28f70bd11",
            ),
        ];
        for (len, expect) in cases {
            assert_eq!(hex(&hash(&tv_input(len))), expect, "len {len}");
        }
    }

    #[test]
    fn official_vectors_multi_chunk_tree() {
        let cases = [
            (
                1024usize,
                "42214739f095a406f3fc83deb889744ac00df831c10daa55189b5d121c855af7",
            ),
            (
                1025,
                "d00278ae47eb27b34faecf67b4fe263f82d5412916c1ffd97c8cb7fb814b8444",
            ),
            (
                2048,
                "e776b6028c7cd22a4d0ba182a8bf62205d2ef576467e838ed6f2529b85fba24a",
            ),
            (
                3072,
                "b98cb0ff3623be03326b373de6b9095218513e64f1ee2edd2525c7ad1e5cffd2",
            ),
            (
                4096,
                "015094013f57a5277b59d8475c0501042c0b642e531b0a1c8f58d2163229e969",
            ),
            (
                5120,
                "9cadc15fed8b5d854562b26a9536d9707cadeda9b143978f319ab34230535833",
            ),
            (
                8192,
                "aae792484c8efe4f19e2ca7d371d8c467ffb10748d8a5a1ae579948f718a2a63",
            ),
            (
                31744,
                "62b6960e1a44bcc1eb1a611a8d6235b6b4b78f32e7abc4fb4c6cdcce94895c47",
            ),
        ];
        for (len, expect) in cases {
            assert_eq!(hex(&hash(&tv_input(len))), expect, "len {len}");
        }
    }

    #[test]
    fn xof_output_matches_reference() {
        // First 96 XOF bytes for the empty input, generated from the official
        // blake3 crate.
        let mut out = [0u8; 96];
        Hasher::new().finalize_xof(&mut out);
        assert_eq!(
            hex(&out),
            "af1349b9f5f9a1a6a0404dea36dcc9499bcb25c9adc112b7cc9a93cae41f3262\
             e00f03e7b69af26b7faaf09fcd333050338ddfe085b8cc869ca98b206c08243a\
             26f5487789e8f660afe6c99ef9e0c52b92e7393024a80459cf91f476f9ffdbda"
                .replace(char::is_whitespace, "")
        );
    }

    #[test]
    fn keyed_hash_matches_reference() {
        let key = [7u8; 32];
        assert_eq!(
            hex(&keyed_hash(&key, b"hello")),
            "54ab3b148d829172a8e4abf8aa6bfe2f1254d33f90cb498a3f15f934d9393526"
        );
    }

    #[test]
    fn incremental_equals_oneshot() {
        let input = tv_input(5000);
        let oneshot = hash(&input);
        let mut h = Hasher::new();
        for chunk in input.chunks(17) {
            h.update(chunk);
        }
        assert_eq!(h.finalize(), oneshot);
    }

    #[test]
    fn xof_prefix_is_the_digest() {
        let input = tv_input(300);
        let digest = hash(&input);
        let mut long = [0u8; 100];
        let mut h = Hasher::new();
        h.update(&input);
        h.finalize_xof(&mut long);
        assert_eq!(&long[..32], &digest);
    }

    #[test]
    fn xof_reader_streams_consistently() {
        let mut h = Hasher::new();
        h.update(b"stream me");
        let mut all = [0u8; 200];
        h.finalize_xof(&mut all);
        let mut reader = h.finalize_xof_reader();
        let mut got = Vec::new();
        let mut buf = [0u8; 7];
        while got.len() < 200 {
            reader.fill(&mut buf);
            got.extend_from_slice(&buf);
        }
        assert_eq!(&got[..200], &all[..]);
    }

    #[test]
    fn xof_reader_skip_lands_on_every_offset() {
        let mut h = Hasher::new();
        h.update(b"seek me");
        let mut all = [0u8; 300];
        h.finalize_xof(&mut all);
        for (first, gap) in [(0, 0), (0, 64), (3, 61), (10, 117), (64, 1), (63, 130)] {
            let mut reader = h.finalize_xof_reader();
            let mut head = vec![0u8; first];
            reader.fill(&mut head);
            reader.skip(gap as u64);
            let mut rest = [0u8; 40];
            reader.fill(&mut rest);
            let at = first + gap;
            assert_eq!(&rest[..], &all[at..at + 40], "read {first}, skip {gap}");
        }
    }

    #[test]
    fn different_keys_give_different_digests() {
        let a = keyed_hash(&[1u8; 32], b"data");
        let b = keyed_hash(&[2u8; 32], b"data");
        assert_ne!(a, b);
        assert_ne!(a, hash(b"data"));
    }
}
