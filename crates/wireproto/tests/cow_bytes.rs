//! `monet.table.cow_bytes` counts the bytes a write deep-copies because a
//! snapshot still shares the table it mutates (DESIGN §17).
//!
//! The embedded transport runs reads on the live engine, so nothing ever
//! shares a table there and writes copy nothing. The wire server keeps
//! its latest published snapshot alive for concurrent readers, so every
//! server write still copies the table it touches: the cost that
//! segmented column storage would remove.

use wireproto::{Client, Embedded, EngineTransport, Server, ServerConfig};

const ROWS: usize = 2_000;

fn cow_bytes() -> u64 {
    obs::counter!("monet.table.cow_bytes").get()
}

fn insert_rows(sql: &mut impl FnMut(&str)) {
    sql("CREATE TABLE t (i INTEGER)");
    let values: Vec<String> = (0..ROWS).map(|i| format!("({i})")).collect();
    sql(&format!("INSERT INTO t VALUES {}", values.join(", ")));
}

#[test]
fn embedded_writes_after_a_read_copy_nothing() {
    let _serial = obs::metrics::test_lock();
    let mut db = Embedded::in_memory();
    insert_rows(&mut |sql| {
        db.query(sql).unwrap();
    });
    for write in [
        "INSERT INTO t VALUES (-1)",
        "UPDATE t SET i = 7 WHERE i = 5",
        "DELETE FROM t WHERE i = 9",
    ] {
        db.query("SELECT count(*), sum(i) FROM t").unwrap();
        let before = cow_bytes();
        db.query(write).unwrap();
        assert_eq!(cow_bytes() - before, 0, "{write} after a read");
    }
}

#[test]
fn server_write_after_a_published_snapshot_copies_the_table() {
    let _serial = obs::metrics::test_lock();
    let server = Server::start(ServerConfig::new("demo", "monetdb", "monetdb"), |db| {
        insert_rows(&mut |sql| {
            db.execute(sql).unwrap();
        })
    });
    let mut client = Client::connect_in_proc(&server, "monetdb", "monetdb", "demo").unwrap();
    let before = cow_bytes();
    client.query("INSERT INTO t VALUES (-1)").unwrap();
    let copied = cow_bytes() - before;
    server.shutdown();
    if obs::enabled() {
        assert!(
            copied >= (ROWS * std::mem::size_of::<i64>()) as u64,
            "the published snapshot shares the table, so the write copies it \
             (counted {copied} bytes)"
        );
    }
}
