//! The tree encoder `QADBIN` streams were written with before the streaming
//! writer (`dragonfly_sim`'s `binary` module): the whole snapshot as a
//! `serde::Value` tree, walked twice. Kept, unchanged, as the reference the
//! differential tests compare the streaming writer against — test code
//! only, shared by the unit tests of the codec and the integration suites.
//!
//! It finds float runs with `Value`'s `PartialEq`, so it merges `0.0` with
//! `-0.0` and never merges NaNs; the streaming writer compares bit
//! patterns. The two agree on every stream without such neighbours.

use serde::Value;
use std::collections::HashMap;

/// First 8 bytes of every binary stream. The trailing byte is the codec
/// version; bump it on any incompatible layout change so old readers
/// reject new files cleanly instead of mis-decoding them.
const MAGIC: &[u8; 8] = b"QADBIN\x00\x01";

// Value tags (one byte each, after the header).
const T_NULL: u8 = 0;
const T_FALSE: u8 = 1;
const T_TRUE: u8 = 2;
const T_INT: u8 = 3; // zigzag varint i128
const T_FLOAT: u8 = 4; // 8-byte LE f64
const T_STR: u8 = 5; // varint byte length + UTF-8 bytes
const T_SEQ: u8 = 6; // varint count + tagged values
const T_MAP: u8 = 7; // varint count + (varint key index, tagged value)*
const T_FSEQ: u8 = 8; // varint count + count × 8-byte LE f64
const T_FSEQ_RLE: u8 = 9; // varint count + (varint run, 8-byte LE f64)*
const T_ISEQ: u8 = 10; // varint count + count × zigzag varint i128

/// Encode a raw [`Value`] tree.
pub fn value_to_vec(v: &Value) -> Vec<u8> {
    // Pass 1: intern every distinct map key in first-seen order.
    let mut keys: Vec<&str> = Vec::new();
    let mut index: HashMap<&str, u32> = HashMap::new();
    collect_keys(v, &mut keys, &mut index);

    let mut out = Vec::with_capacity(4096);
    out.extend_from_slice(MAGIC);
    write_varint(&mut out, keys.len() as u128);
    for k in &keys {
        write_varint(&mut out, k.len() as u128);
        out.extend_from_slice(k.as_bytes());
    }
    write_value(&mut out, v, &index);
    out
}

fn collect_keys<'a>(v: &'a Value, keys: &mut Vec<&'a str>, index: &mut HashMap<&'a str, u32>) {
    match v {
        Value::Map(entries) => {
            for (k, val) in entries {
                index.entry(k.as_str()).or_insert_with(|| {
                    keys.push(k.as_str());
                    (keys.len() - 1) as u32
                });
                collect_keys(val, keys, index);
            }
        }
        Value::Seq(items) => {
            for item in items {
                collect_keys(item, keys, index);
            }
        }
        _ => {}
    }
}

fn write_value(out: &mut Vec<u8>, v: &Value, index: &HashMap<&str, u32>) {
    match v {
        Value::Null => out.push(T_NULL),
        Value::Bool(false) => out.push(T_FALSE),
        Value::Bool(true) => out.push(T_TRUE),
        Value::Int(i) => {
            out.push(T_INT);
            write_varint(out, zigzag(*i));
        }
        Value::Float(f) => {
            out.push(T_FLOAT);
            out.extend_from_slice(&f.to_le_bytes());
        }
        Value::Str(s) => {
            out.push(T_STR);
            write_varint(out, s.len() as u128);
            out.extend_from_slice(s.as_bytes());
        }
        Value::Seq(items) => write_seq(out, items, index),
        Value::Map(entries) => {
            out.push(T_MAP);
            write_varint(out, entries.len() as u128);
            for (k, val) in entries {
                write_varint(out, index[k.as_str()] as u128);
                write_value(out, val, index);
            }
        }
    }
}

fn write_seq(out: &mut Vec<u8>, items: &[Value], index: &HashMap<&str, u32>) {
    // Homogeneous fast paths. Floats additionally pick run-length
    // encoding when the run structure beats the packed form — fresh
    // two-level Q-table rows repeat one init value per slot group, so
    // they compress from 8 bytes/value to ~9 bytes/run.
    if !items.is_empty() && items.iter().all(|x| matches!(x, Value::Float(_))) {
        let mut runs: usize = 1;
        for w in items.windows(2) {
            if w[0] != w[1] {
                runs += 1;
            }
        }
        if runs * 9 < items.len() * 8 {
            out.push(T_FSEQ_RLE);
            write_varint(out, items.len() as u128);
            let mut i = 0;
            while i < items.len() {
                let mut j = i + 1;
                while j < items.len() && items[j] == items[i] {
                    j += 1;
                }
                write_varint(out, (j - i) as u128);
                if let Value::Float(f) = items[i] {
                    out.extend_from_slice(&f.to_le_bytes());
                }
                i = j;
            }
        } else {
            out.push(T_FSEQ);
            write_varint(out, items.len() as u128);
            for x in items {
                if let Value::Float(f) = x {
                    out.extend_from_slice(&f.to_le_bytes());
                }
            }
        }
        return;
    }
    if !items.is_empty() && items.iter().all(|x| matches!(x, Value::Int(_))) {
        out.push(T_ISEQ);
        write_varint(out, items.len() as u128);
        for x in items {
            if let Value::Int(i) = x {
                write_varint(out, zigzag(*i));
            }
        }
        return;
    }
    out.push(T_SEQ);
    write_varint(out, items.len() as u128);
    for x in items {
        write_value(out, x, index);
    }
}

fn write_varint(out: &mut Vec<u8>, mut v: u128) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn zigzag(i: i128) -> u128 {
    ((i << 1) ^ (i >> 127)) as u128
}
