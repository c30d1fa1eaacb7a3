//! `shop_checkout`: 90 % `checkout` / 10 % `getOrder`.
//!
//! A checkout runs four nested handlers, three write transactions and a
//! key-value cart clear — the most commits, WAL appends, trace events and
//! provenance rows per request of any workload. `getOrder` reads back an
//! order the same connection created earlier, so it can never miss.

use std::ops::Range;

use trod_core::json::Json;

use super::{partition, Class, ConnGen, Request, Rng};

/// Preloaded inventory rows (`item-000` … `item-499`).
pub const ITEMS: usize = 500;
/// Distinct customers per connection.
pub const CUSTOMERS: usize = 1000;
/// Units preloaded per item: far more than any run sells, so no checkout
/// can fail for lack of stock.
pub const STOCK: i64 = 1_000_000_000;
/// Orders (and payments) preloaded as the shop's past.
pub const PAST_ORDERS: usize = 20_000;
/// Requests per block: one of them is the `getOrder`.
const BLOCK: usize = 10;
/// Quantities are drawn from `1..=MAX_QUANTITY`; 12 makes the amount
/// (`quantity * 10`) two or three digits, which is all that lets
/// `wal_bytes_per_req` differ between seeds.
const MAX_QUANTITY: usize = 12;

pub fn item_name(item: usize) -> String {
    format!("item-{item:03}")
}

pub struct ShopGen {
    conn: usize,
    rng: Rng,
    items: Range<usize>,
    /// Position of the `getOrder` inside the current block.
    read_at: usize,
    pos: usize,
    /// `(customer, item)` of every order this connection has placed.
    orders: Vec<(u16, u16)>,
    units: i64,
}

impl ShopGen {
    pub fn new(seed: u64, conn: usize) -> ShopGen {
        let mut rng = Rng::new(seed, conn as u64);
        // Never first in a block: the first block must place an order
        // before it can read one.
        let read_at = 1 + rng.below(BLOCK - 1);
        ShopGen {
            conn,
            rng,
            items: partition(ITEMS, conn),
            read_at,
            pos: 0,
            orders: Vec::new(),
            units: 0,
        }
    }

    fn customer_name(&self, customer: u16) -> String {
        format!("cust-{}-{customer:03}", self.conn)
    }

    fn order_id(&self, n: usize) -> String {
        format!("o{}-{n}", self.conn)
    }
}

impl ConnGen for ShopGen {
    fn next_request(&mut self) -> Request {
        let is_read = self.pos == self.read_at;
        self.pos += 1;
        if self.pos == BLOCK {
            self.pos = 0;
            self.read_at = 1 + self.rng.below(BLOCK - 1);
        }
        if is_read {
            let n = self.rng.below(self.orders.len());
            let (customer, item) = self.orders[n];
            return Request::invoke(
                "getOrder",
                Class::Read,
                1,
                vec![("order_id", Json::str(self.order_id(n)))],
                Json::str(format!(
                    "{}:{}:confirmed",
                    self.customer_name(customer),
                    item_name(item as usize)
                )),
            );
        }
        let customer = self.rng.below(CUSTOMERS) as u16;
        let item = (self.items.start + self.rng.below(self.items.len())) as u16;
        let quantity = 1 + self.rng.below(MAX_QUANTITY) as i64;
        let order_id = self.order_id(self.orders.len());
        self.orders.push((customer, item));
        self.units += quantity;
        Request::invoke(
            "checkout",
            Class::Write,
            // reserveInventory, chargePayment, createOrder.
            3,
            vec![
                ("order_id", Json::str(order_id.clone())),
                ("customer", Json::str(self.customer_name(customer))),
                ("item", Json::str(item_name(item as usize))),
                ("quantity", Json::from(quantity)),
            ],
            Json::str(order_id),
        )
    }

    fn tally(&self) -> Vec<(&'static str, i64)> {
        vec![
            ("checkouts", self.orders.len() as i64),
            ("units", self.units),
        ]
    }
}
