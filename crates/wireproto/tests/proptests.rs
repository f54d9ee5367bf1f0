//! Property tests for the wire protocol (devharness::prop).

use devharness::prop::{self, BoxedStrategy, Config, Strategy};
use devharness::{prop_assert, prop_assert_eq};
use wireproto::message::{Message, WireResult, WireTable, WireValue};
use wireproto::TransferOptions;

fn cfg() -> Config {
    Config::cases(96)
}

const STR_CHARS: &str = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 _%-";

fn wire_value_strategy() -> BoxedStrategy<WireValue> {
    prop::one_of(vec![
        prop::just(WireValue::Null).boxed(),
        prop::any_i64().map(|v| WireValue::Int(*v)).boxed(),
        prop::any_f64()
            .filter("NaN != NaN breaks equality", |f| !f.is_nan())
            .map(|f| WireValue::Double(*f))
            .boxed(),
        prop::string_of(STR_CHARS, 0..24)
            .map(|s| WireValue::Str(s.clone()))
            .boxed(),
        prop::any_bool().map(|b| WireValue::Bool(*b)).boxed(),
        prop::vec_of(prop::any_u8(), 1..32)
            .map(|v| WireValue::Blob(v.clone()))
            .boxed(),
    ])
    .boxed()
}

#[test]
fn decode_never_panics_on_garbage() {
    prop::check(cfg(), prop::vec_of(prop::any_u8(), 0..512), |data| {
        let _ = Message::decode(data);
        Ok(())
    });
}

#[test]
fn messages_round_trip() {
    let strategy = (
        prop::string_of(
            "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 '(),*=",
            0..80,
        ),
        prop::any_bool(),
        prop::any_bool(),
        prop::option_of(prop::usize_in(0..100_000)),
        (prop::any_u64(), prop::usize_in(1..4 << 20)),
    );
    prop::check(
        cfg(),
        strategy,
        |(sql, compress, encrypt, sample, (id, bs))| {
            for msg in [
                Message::Query { sql: sql.clone() },
                Message::ExtractDelta {
                    query: sql.clone(),
                    udf: "f".into(),
                    options: TransferOptions {
                        compress: *compress,
                        encrypt: *encrypt,
                        sample: *sample,
                        ..Default::default()
                    },
                    transfer_id: *id,
                    epochs: vec![],
                    digests: vec![],
                },
                Message::ExtractDelta {
                    query: sql.clone(),
                    udf: "f".into(),
                    options: TransferOptions {
                        compress: *compress,
                        encrypt: *encrypt,
                        sample: *sample,
                        block_size: *bs,
                    },
                    transfer_id: *id,
                    epochs: vec![(sql.clone(), *id)],
                    digests: vec![[(*id % 251) as u8; 32]],
                },
            ] {
                let decoded = Message::decode(&msg.encode()).unwrap();
                prop_assert_eq!(decoded, msg);
            }
            Ok(())
        },
    );
}

#[test]
fn tables_round_trip() {
    let rows = prop::vec_of(prop::vec_of(wire_value_strategy(), 3..4), 0..20);
    prop::check(cfg(), rows, |cells| {
        let table = WireTable {
            name: "r".into(),
            columns: vec![
                ("a".into(), "INTEGER".into()),
                ("b".into(), "DOUBLE".into()),
                ("c".into(), "STRING".into()),
            ],
            rows: cells.clone(),
        };
        let msg = Message::ResultSet {
            result: WireResult::Table(table),
            udf_stdout: String::new(),
        };
        let decoded = Message::decode(&msg.encode()).unwrap();
        prop_assert_eq!(decoded, msg);
        Ok(())
    });
}

#[test]
fn truncated_frames_error_not_panic() {
    let strategy = (
        prop::string_of("abcdefghijklmnopqrstuvwxyz ", 1..60),
        prop::usize_in(0..1000),
    );
    prop::check(cfg(), strategy, |(sql, cut_permille)| {
        let msg = Message::Query { sql: sql.clone() };
        let mut encoded = msg.encode();
        let cut = encoded.len() * cut_permille / 1000;
        encoded.truncate(cut);
        if cut < msg.encode().len() {
            prop_assert!(Message::decode(&encoded).is_err());
        }
        Ok(())
    });
}
