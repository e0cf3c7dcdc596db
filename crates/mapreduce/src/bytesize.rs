//! Shuffle-size accounting.
//!
//! Hadoop reports the number of bytes moved from mappers to reducers; the
//! paper uses exactly that number as its "shuffling cost" metric.  Every key
//! and value type that flows through the simulated shuffle implements
//! [`ByteSize`], reporting how many bytes its serialised form would occupy on
//! the wire.  The engine sums these sizes for every emitted intermediate pair.

use bytes::Bytes;

/// Number of bytes a value would occupy when serialised for the shuffle.
pub trait ByteSize {
    /// Serialised size in bytes.
    fn byte_size(&self) -> usize;

    /// How many shuffled records this value stands for: one, unless a value
    /// moves a run of records as one object (a slice of a shared cell).  The
    /// engine counts `records()` shuffle records per emitted pair and charges
    /// the key once per record, so such a value is accounted exactly like the
    /// per-record emissions it replaces; `byte_size` then covers all of them.
    fn records(&self) -> usize {
        1
    }
}

macro_rules! impl_bytesize_fixed {
    ($($t:ty => $n:expr),* $(,)?) => {
        $(impl ByteSize for $t {
            fn byte_size(&self) -> usize { $n }
        })*
    };
}

impl_bytesize_fixed!(
    u8 => 1, i8 => 1,
    u16 => 2, i16 => 2,
    u32 => 4, i32 => 4, f32 => 4,
    u64 => 8, i64 => 8, f64 => 8,
    usize => 8, isize => 8,
    bool => 1,
    () => 0,
);

impl ByteSize for String {
    fn byte_size(&self) -> usize {
        // length prefix + UTF-8 payload
        4 + self.len()
    }
}

impl ByteSize for &str {
    fn byte_size(&self) -> usize {
        4 + self.len()
    }
}

impl ByteSize for Bytes {
    fn byte_size(&self) -> usize {
        4 + self.len()
    }
}

impl<T: ByteSize> ByteSize for Vec<T> {
    fn byte_size(&self) -> usize {
        4 + self.iter().map(ByteSize::byte_size).sum::<usize>()
    }
}

impl<T: ByteSize> ByteSize for Option<T> {
    fn byte_size(&self) -> usize {
        1 + self.as_ref().map_or(0, ByteSize::byte_size)
    }
}

impl<T: ByteSize> ByteSize for Box<T> {
    fn byte_size(&self) -> usize {
        self.as_ref().byte_size()
    }
}

impl<A: ByteSize, B: ByteSize> ByteSize for (A, B) {
    fn byte_size(&self) -> usize {
        self.0.byte_size() + self.1.byte_size()
    }
}

impl<A: ByteSize, B: ByteSize, C: ByteSize> ByteSize for (A, B, C) {
    fn byte_size(&self) -> usize {
        self.0.byte_size() + self.1.byte_size() + self.2.byte_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_sizes() {
        assert_eq!(3u8.byte_size(), 1);
        assert_eq!(3u32.byte_size(), 4);
        assert_eq!(3.0f64.byte_size(), 8);
        assert_eq!(true.byte_size(), 1);
        assert_eq!(().byte_size(), 0);
    }

    #[test]
    fn string_and_bytes_include_length_prefix() {
        assert_eq!("abc".to_string().byte_size(), 7);
        assert_eq!(Bytes::from_static(b"abcd").byte_size(), 8);
        assert_eq!("abc".byte_size(), 7);
    }

    #[test]
    fn containers_sum_elements() {
        assert_eq!(vec![1u32, 2, 3].byte_size(), 4 + 12);
        assert_eq!((1u64, 2u32).byte_size(), 12);
        assert_eq!((1u64, 2u32, "x".to_string()).byte_size(), 8 + 4 + 5);
        assert_eq!(Some(5u64).byte_size(), 9);
        assert_eq!(Option::<u64>::None.byte_size(), 1);
        assert_eq!(Box::new(7u16).byte_size(), 2);
    }
}
